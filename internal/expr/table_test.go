package expr

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestTableSharesNodes pins hash-consing: a repeated construction
// returns the node the first one built, and allocates nothing.
func TestTableSharesNodes(t *testing.T) {
	tab := new(Table)
	x := tab.Sym("x")
	cases := []struct {
		name  string
		build func() *Expr
	}{
		{"sym", func() *Expr { return tab.Sym("heap_1c") }},
		{"large const", func() *Expr { return tab.Const(0x670B0) }},
		{"deref", func() *Expr { return tab.Deref(x) }},
		{"bin", func() *Expr { return tab.Bin(OpMul, x, tab.Sym("y")) }},
		{"add", func() *Expr { return tab.Add(x, 0x4C) }},
		{"nested", func() *Expr { return tab.Deref(tab.Add(tab.Deref(tab.Add(x, 0x58)), 0xEC)) }},
	}
	for _, c := range cases {
		first := c.build()
		var again *Expr
		if n := testing.AllocsPerRun(100, func() { again = c.build() }); n != 0 {
			t.Errorf("%s: a repeated construction allocates %v times, want 0", c.name, n)
		}
		if again != first {
			t.Errorf("%s: a repeated construction built %p, want the first node %p", c.name, again, first)
		}
	}
}

// TestTableCanonicalForms checks that constructions normalizing to one
// form give one node: commuted sums, folded constants, and expressions
// truncated at MaxDepth.
func TestTableCanonicalForms(t *testing.T) {
	tab := new(Table)
	x, y := tab.Sym("x"), tab.Sym("y")
	same := func(name string, a, b *Expr) {
		t.Helper()
		if a != b {
			t.Errorf("%s: %s (%p) and %s (%p) are two nodes", name, a, a, b, b)
		}
	}
	same("x+y, y+x", tab.Bin(OpAdd, x, y), tab.Bin(OpAdd, y, x))
	same("(x+1)+2, x+3", tab.Add(tab.Add(x, 1), 2), tab.Add(x, 3))
	same("(x+0x10000)-0x10000, x", tab.Bin(OpSub, tab.Add(x, 0x10000), tab.Const(0x10000)), x)
	same("2*3, 6", tab.Bin(OpMul, tab.Const(2), tab.Const(3)), tab.Const(6))
	same("big consts folded", tab.Add(tab.Const(0x67000), 0xB0), tab.Const(0x670B0))
	deep := func() *Expr {
		e := tab.Sym("p")
		for i := 0; i < MaxDepth*3; i++ {
			e = tab.Deref(tab.Add(e, 4))
		}
		return e
	}
	a, b := deep(), deep()
	same("truncated deref chain", a, b)
	if !hasOpaque(a) {
		t.Fatalf("deep chain %s was not truncated", a)
	}
}

func hasOpaque(e *Expr) bool {
	return e.AnySym(func(s string) bool { return len(s) > 7 && s[:7] == "opaque_" })
}

// TestTableSubstMapSyms checks that rewriting through a table returns
// the table's nodes.
func TestTableSubstMapSyms(t *testing.T) {
	tab := new(Table)
	e := tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Arg(0), 0x58)), 0xEC))
	want := tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Arg(1), 0x58)), 0xEC))
	if got := tab.Subst(e, tab.Arg(0), tab.Arg(1)); got != want {
		t.Errorf("Subst built %s (%p), want the table's node %p", got, got, want)
	}
	got := tab.MapSyms(e, func(name string) *Expr {
		if name == ArgName(0) {
			return tab.Arg(1)
		}
		return nil
	})
	if got != want {
		t.Errorf("MapSyms built %s (%p), want the table's node %p", got, got, want)
	}
	// Another table's operand is rewritten into this table's nodes too.
	other := new(Table)
	if got := tab.Subst(other.Deref(other.Add(other.Arg(0), 0x58)), other.Arg(0), tab.Arg(1)); got != tab.Deref(tab.Add(tab.Arg(1), 0x58)) {
		t.Errorf("Subst over another table's nodes built %s (%p), not the table's node", got, got)
	}
}

// TestPropertyTableKeysMatchPackage: keys are the package's canonical
// spelling, not a table's: building an expression through a fresh
// table gives the key and the structure the shared test table gives,
// and building it again gives the same node.
func TestPropertyTableKeysMatchPackage(t *testing.T) {
	fresh := new(Table)
	f := func(seed int64) bool {
		for _, depth := range []int{5, 20} {
			a := randomExpr(rand.New(rand.NewSource(seed)), depth)
			b := randomExprIn(fresh, rand.New(rand.NewSource(seed)), depth)
			c := randomExprIn(fresh, rand.New(rand.NewSource(seed)), depth)
			if a.Key() != b.Key() || !a.Equal(b) || b != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTableConcurrentBuilders: workers building the same expressions at
// once through one table get one node for each.
func TestTableConcurrentBuilders(t *testing.T) {
	tab := new(Table)
	const workers, seeds = 8, 200
	got := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := int64(0); s < seeds; s++ {
				e := randomExprIn(tab, rand.New(rand.NewSource(s)), 8)
				got[w] = append(got[w], tab.Add(e, 0x10000+s))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for s := range got[w] {
			if got[w][s] != got[0][s] {
				t.Fatalf("seed %d: worker %d built %p, worker 0 built %p for %s", s, w, got[w][s], got[0][s], got[0][s])
			}
		}
	}
}

// TestZeroTableAllocatesNothing: a table that has built nothing holds
// no storage.
func TestZeroTableAllocatesNothing(t *testing.T) {
	tab := new(Table)
	if tab.shards.Load() != nil {
		t.Fatal("a new table allocated its shards")
	}
	tab.Const(7) // shared small constants bypass the table
	if tab.shards.Load() != nil {
		t.Fatal("a small constant allocated the table's shards")
	}
}
