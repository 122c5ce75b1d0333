package vrange

import (
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

func TestFromConstraint(t *testing.T) {
	n := tab.Sym("len_abc")
	tests := []struct {
		name string
		l, r *expr.Expr
		cond isa.Cond
		key  string
		iv   Interval
		ok   bool
	}{
		{"lt", n, tab.Const(152), isa.CondLT, "len_abc", AtMost(151), true},
		{"le", n, tab.Const(151), isa.CondLE, "len_abc", AtMost(151), true},
		{"eq", n, tab.Const(7), isa.CondEQ, "len_abc", Point(7), true},
		{"gt lower bound only", n, tab.Const(4), isa.CondGT, "len_abc", AtLeast(5), true},
		{"ge lower bound only", n, tab.Const(4), isa.CondGE, "len_abc", AtLeast(4), true},
		{"ne unsupported", n, tab.Const(4), isa.CondNE, "", Interval{}, false},
		{"al unsupported", n, tab.Const(4), isa.CondAL, "", Interval{}, false},
		{"mirrored const left", tab.Const(152), n, isa.CondGT, "len_abc", AtMost(151), true},
		{"mirrored le", tab.Const(10), n, isa.CondLE, "len_abc", AtLeast(10), true},
		{"offset shifted", tab.Add(n, 1), tab.Const(64), isa.CondLE, "len_abc", AtMost(63), true},
		{"offset shifted lt", tab.Add(n, 1), tab.Const(64), isa.CondLT, "len_abc", AtMost(62), true},
		{"two symbols", n, tab.Sym("cap"), isa.CondLT, "", Interval{}, false},
		{"two consts", tab.Const(1), tab.Const(2), isa.CondLT, "", Interval{}, false},
		{"deref base", tab.Deref(tab.Sym("p")), tab.Const(9), isa.CondLE, tab.Deref(tab.Sym("p")).Key(), AtMost(9), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			key, iv, ok := FromConstraint(tt.l, tt.r, tt.cond)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if !ok {
				return
			}
			if key != tt.key || !iv.Eq(tt.iv) {
				t.Fatalf("got (%q, %v), want (%q, %v)", key, iv, tt.key, tt.iv)
			}
		})
	}
}

// The guard idiom the satellite fix targets: `if (n > 151) return` leaves
// n <= 151 on the fall-through path, which bounds but does not shrink
// below a 152-byte destination — the copy of n+NUL bytes still overflows
// by one. FromConstraint must report Hi == 151 exactly so the detector
// can make that call.
func TestFromConstraintOffByOneBoundary(t *testing.T) {
	n := tab.Sym("n")
	_, iv, ok := FromConstraint(n, tab.Const(152), isa.CondLE)
	if !ok || iv.Hi != 152 {
		t.Fatalf("n <= 152: got %v, %v", iv, ok)
	}
	_, iv, ok = FromConstraint(n, tab.Const(152), isa.CondLT)
	if !ok || iv.Hi != 151 {
		t.Fatalf("n < 152: got %v, %v", iv, ok)
	}
}

// FuzzIntervalFromConstraint checks two invariants over arbitrary
// constraint shapes: (1) derivation never panics or returns Bottom with
// ok, and (2) soundness — every concrete value satisfying the concrete
// comparison lies inside the derived interval.
func FuzzIntervalFromConstraint(f *testing.F) {
	f.Add(int64(152), uint8(isa.CondLT), int64(0), int64(100), false)
	f.Add(int64(64), uint8(isa.CondLE), int64(1), int64(64), true)
	f.Add(int64(-3), uint8(isa.CondGT), int64(0), int64(-4), false)
	f.Add(int64(0), uint8(isa.CondEQ), int64(0), int64(0), true)
	f.Add(DomainMin, uint8(isa.CondLT), int64(-7), DomainMin, false)
	f.Add(DomainMax, uint8(isa.CondGT), int64(5), DomainMax, true)
	f.Fuzz(func(t *testing.T, c int64, condRaw uint8, off int64, v int64, mirrored bool) {
		cond := isa.Cond(condRaw % 7)
		n := tab.Sym("n")
		lhs := tab.Add(n, off%1024) // keep the offset small enough to not clamp
		rhs := tab.Const(c)
		var key string
		var iv Interval
		var ok bool
		if mirrored {
			key, iv, ok = FromConstraint(rhs, lhs, mirror(cond))
		} else {
			key, iv, ok = FromConstraint(lhs, rhs, cond)
		}
		if !ok {
			return
		}
		if key != "n" {
			t.Fatalf("key = %q, want n", key)
		}
		if iv.IsBottom() {
			t.Fatalf("ok result must not be Bottom")
		}
		// Soundness: if the concrete comparison (n+off) cond c holds for
		// n = v, then v must be inside iv (modulo domain clamping).
		if v < DomainMin || v > DomainMax {
			return
		}
		lv := v + off%1024
		holds := false
		switch cond {
		case isa.CondEQ:
			holds = lv == c
		case isa.CondLT:
			holds = lv < c
		case isa.CondLE:
			holds = lv <= c
		case isa.CondGT:
			holds = lv > c
		case isa.CondGE:
			holds = lv >= c
		}
		if holds && !iv.Contains(v) {
			t.Fatalf("unsound: n=%d satisfies (n%+d) %v %d but %v excludes it",
				v, off%1024, cond, c, iv)
		}
	})
}
