package sse

import (
	"testing"

	"dtaint/internal/expr"
)

// FuzzIntern drives the interner with a byte-coded instruction stream:
// each pair of bytes either extends one of two working expressions with
// a deref step or offset, swaps them, or asserts an alias fact between
// them. The invariants checked are the package contract: interning is
// stable (same expression, same pointer), Alias is reflexive and
// symmetric, and no input sequence panics.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{0x01, 0x08, 0x02, 0x04, 0x03, 0x00})
	f.Add([]byte{0x00, 0x10, 0x01, 0x04, 0x04, 0x00, 0x03, 0x08})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := new(expr.Table)
		in := NewInterner(tab)
		a := tab.Sym("arg0")
		b := tab.Sym("arg1")
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int64(int8(ops[i+1]))
			switch ops[i] % 5 {
			case 0: // a = deref(a + k)
				a = tab.Deref(tab.Add(a, arg))
			case 1: // b = deref(b + k)
				b = tab.Deref(tab.Add(b, arg))
			case 2: // swap
				a, b = b, a
			case 3: // fact: value(a) = value(b) + k
				pa, oka := in.Intern(a)
				pb, okb := in.Intern(b)
				if oka && okb {
					in.Union(pa.Node, pa.Off, pb.Node, pb.Off+arg)
				}
			case 4: // reset one side to a fresh root
				a = tab.Sym("sp")
			}
			if a.Depth() > 10 || b.Depth() > 10 {
				break
			}
		}
		pa, oka := in.Intern(a)
		if !oka {
			return
		}
		pa2, _ := in.Intern(a)
		if pa != pa2 {
			t.Fatalf("unstable interning: %+v vs %+v", pa, pa2)
		}
		if !in.Alias(pa, pa) {
			t.Fatal("alias not reflexive")
		}
		if pb, okb := in.Intern(b); okb {
			if in.Alias(pa, pb) != in.Alias(pb, pa) {
				t.Fatal("alias not symmetric")
			}
		}
		for _, fe := range in.PathExprs(pa, 2, 8) {
			if fe == nil {
				t.Fatal("nil spelling")
			}
		}
	})
}
