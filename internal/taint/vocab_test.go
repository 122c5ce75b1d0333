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
		{"plain global", tab.Deref(tab.Const(0x20000)), true},
		{"global field", tab.Deref(tab.Add(tab.Const(0x20000), 8)), true},
		{"nested global", tab.Deref(tab.Deref(tab.Const(0x20000))), true},
		{"or-combined", tab.Bin(expr.OpOr, tab.Sym("x"), tab.Deref(tab.Const(4))), true},
		{"arg deref", tab.Deref(tab.Arg(0)), false},
		{"plain const", tab.Const(0x20000), false},
		{"symbol", tab.Sym("arg0"), false},
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
	a := tab.Deref(tab.Sym("p"))
	b := tab.Deref(tab.Deref(tab.Sym("p")))
	ts := tab.Sym(expr.TaintName("getenv", 1))
	combined := tab.Bin(expr.OpOr, tab.Bin(expr.OpOr, a, b), ts)
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
