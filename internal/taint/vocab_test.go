package taint

import (
	"testing"

	"dtaint/internal/expr"
)

func TestReadsGlobal(t *testing.T) {
	tests := []struct {
		name string
		e    *expr.Expr
		want bool
	}{
		{"plain global", expr.Deref(expr.Const(0x20000)), true},
		{"global field", expr.Deref(expr.Add(expr.Const(0x20000), 8)), true},
		{"nested global", expr.Deref(expr.Deref(expr.Const(0x20000))), true},
		{"or-combined", expr.Bin(expr.OpOr, expr.Sym("x"), expr.Deref(expr.Const(4))), true},
		{"arg deref", expr.Deref(expr.Arg(0)), false},
		{"plain const", expr.Const(0x20000), false},
		{"symbol", expr.Sym("arg0"), false},
		{"nil", nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := readsGlobal(tt.e); got != tt.want {
				t.Fatalf("readsGlobal(%s) = %v, want %v", tt.e, got, tt.want)
			}
		})
	}
}

func TestGuardRootsFlattensOr(t *testing.T) {
	a := expr.Deref(expr.Sym("p"))
	b := expr.Deref(expr.Deref(expr.Sym("p")))
	ts := expr.Sym(expr.TaintName("getenv", 1))
	combined := expr.Bin(expr.OpOr, expr.Bin(expr.OpOr, a, b), ts)
	roots := guardRoots(combined)
	want := map[string]bool{a.Key(): false, b.Key(): false, ts.Key(): false}
	for _, r := range roots {
		if _, ok := want[r]; ok {
			want[r] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("guardRoots missing component %s (got %v)", k, roots)
		}
	}
}
