package sse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dtaint/internal/expr"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

func qc(t *testing.T, name string, f interface{}) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatal(err)
		}
	})
}

// pathSpec is a random access path: a root symbol and up to four deref
// steps with small offsets. It drives the canonicalization laws.
type pathSpec struct {
	Root  uint8
	Steps []int8
	Off   int8
}

var specRoots = []string{"arg0", "arg1", "sp", "heap_x", "g"}

func (pathSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	s := pathSpec{
		Root: uint8(r.Intn(len(specRoots))),
		Off:  int8(r.Intn(32) - 8),
	}
	for n := r.Intn(4); n > 0; n-- {
		s.Steps = append(s.Steps, int8(r.Intn(32)-8))
	}
	return reflect.ValueOf(s)
}

// build constructs the spec's expression in the canonical spelling.
func (s pathSpec) build() *expr.Expr {
	e := tab.Sym(specRoots[s.Root%uint8(len(specRoots))])
	for _, st := range s.Steps {
		e = tab.Deref(tab.Add(e, int64(st)))
	}
	return tab.Add(e, int64(s.Off))
}

// buildScrambled constructs the same value with commuted additions and
// subtractive offset spellings: base+off written as off+base, or as
// base-(-off).
func (s pathSpec) buildScrambled(flip uint8) *expr.Expr {
	e := tab.Sym(specRoots[s.Root%uint8(len(specRoots))])
	mix := func(base *expr.Expr, off int64, bit uint8) *expr.Expr {
		switch bit % 3 {
		case 1:
			return tab.Bin(expr.OpAdd, tab.Const(off), base)
		case 2:
			return tab.Bin(expr.OpSub, base, tab.Const(-off))
		}
		return tab.Add(base, off)
	}
	for i, st := range s.Steps {
		e = tab.Deref(mix(e, int64(st), flip>>(uint(i)%6)))
	}
	return mix(e, int64(s.Off), flip>>6)
}

func TestCanonicalizationLaws(t *testing.T) {
	qc(t, "idempotent", func(s pathSpec) bool {
		in := NewInterner(tab)
		p, ok := in.Intern(s.build())
		if !ok {
			return false
		}
		q, ok := in.Intern(tab.Add(p.Node.Expr(), p.Off))
		return ok && p == q
	})
	qc(t, "canonical-equal is pointer-identical", func(s pathSpec) bool {
		in := NewInterner(tab)
		p, ok1 := in.Intern(s.build())
		q, ok2 := in.Intern(s.build())
		return ok1 && ok2 && p.Node == q.Node && p.Off == q.Off
	})
	qc(t, "commutative offsets normalize identically", func(s pathSpec, flip uint8) bool {
		in := NewInterner(tab)
		p, ok1 := in.Intern(s.build())
		q, ok2 := in.Intern(s.buildScrambled(flip))
		return ok1 && ok2 && p == q
	})
	qc(t, "alias is reflexive", func(s pathSpec) bool {
		in := NewInterner(tab)
		p, ok := in.Intern(s.build())
		return ok && in.Alias(p, p)
	})
}

// groupModel drives the union-find law: roots are assigned hidden
// integer values and partitioned into groups; facts assert consistent
// value differences inside each group. Alias must then agree exactly
// with the model.
type groupModel struct {
	Group [5]uint8
	Val   [5]int8
}

func (groupModel) Generate(r *rand.Rand, _ int) reflect.Value {
	var m groupModel
	for i := range m.Group {
		m.Group[i] = uint8(r.Intn(3))
		m.Val[i] = int8(r.Intn(64) - 32)
	}
	return reflect.ValueOf(m)
}

func TestUnionFindMatchesModel(t *testing.T) {
	qc(t, "alias agrees with hidden-value model", func(m groupModel, qa, qb uint8, oa, ob int8) bool {
		in := NewInterner(tab)
		nodes := make([]*Node, len(m.Group))
		for i := range nodes {
			nodes[i] = in.Root(specRoots[i])
		}
		// Assert value(i) = value(j) + (Val[i]-Val[j]) for group peers.
		for i := 1; i < len(nodes); i++ {
			for j := 0; j < i; j++ {
				if m.Group[i] == m.Group[j] {
					if !in.Union(nodes[i], 0, nodes[j], int64(m.Val[i]-m.Val[j])) {
						return false
					}
				}
			}
		}
		a, b := int(qa)%len(nodes), int(qb)%len(nodes)
		p := Path{Node: nodes[a], Off: int64(oa)}
		q := Path{Node: nodes[b], Off: int64(ob)}
		want := m.Group[a] == m.Group[b] &&
			int64(m.Val[a])+int64(oa) == int64(m.Val[b])+int64(ob)
		return in.Alias(p, q) == want
	})
}

func TestWeightedUnion(t *testing.T) {
	in := NewInterner(tab)
	a, b := in.Root("a"), in.Root("b")
	// value(a) = value(b) + 8.
	if !in.Union(a, 0, b, 8) {
		t.Fatal("union rejected")
	}
	if !in.Alias(Path{a, 0}, Path{b, 8}) {
		t.Fatal("displacement lost")
	}
	if in.Alias(Path{a, 0}, Path{b, 0}) {
		t.Fatal("aliased distinct offsets")
	}
	// A contradictory re-assertion is rejected and counted.
	if in.Union(a, 0, b, 4) {
		t.Fatal("contradiction accepted")
	}
	if in.Stats().Conflicts != 1 {
		t.Fatalf("conflicts = %d", in.Stats().Conflicts)
	}
}

func TestCongruenceClosure(t *testing.T) {
	in := NewInterner(tab)
	a, b := in.Root("a"), in.Root("b")
	ca := in.Child(a, 4)
	in.Union(a, 0, b, 0)
	cb := in.Child(b, 4)
	if !in.SameClass(ca, cb) {
		t.Fatal("congruent children not unioned")
	}
	// With a displacement: value(x) = value(y) + 8, so the address x+k
	// is the address y+(k+8).
	x, y := in.Root("x"), in.Root("y")
	cx := in.Child(x, 0)
	cy := in.Child(y, 8)
	in.Union(x, 0, y, 8)
	if !in.SameClass(cx, cy) {
		t.Fatal("displaced congruent children not unioned")
	}
	if in.SameClass(in.Child(x, 4), cx) {
		t.Fatal("distinct displacements merged")
	}
}

func TestCongruenceAtInternTime(t *testing.T) {
	// The union exists before the second spelling is interned: the new
	// child must land in the existing class at creation time.
	in := NewInterner(tab)
	arg0, arg1 := in.Root("arg0"), in.Root("arg1")
	in.Union(in.Child(arg0, 8), 0, arg1, 0) // deref(arg0+8) = arg1
	p, ok := in.Intern(tab.Deref(tab.Add(tab.Sym("arg1"), 4)))
	if !ok {
		t.Fatal("intern failed")
	}
	q, ok := in.Intern(tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Sym("arg0"), 8)), 4)))
	if !ok {
		t.Fatal("intern failed")
	}
	if !in.Alias(p, q) {
		t.Fatal("nested spellings of one address do not alias")
	}
}

func TestInternRejectsNonPaths(t *testing.T) {
	in := NewInterner(tab)
	if _, ok := in.Intern(nil); ok {
		t.Fatal("nil interned")
	}
	if _, ok := in.Intern(tab.Const(7)); ok {
		t.Fatal("constant interned")
	}
	mul := tab.Bin(expr.OpMul, tab.Sym("a"), tab.Sym("b"))
	if _, ok := in.Intern(mul); ok {
		t.Fatal("non-additive form interned")
	}
}

func TestPathExprsExpandsThroughClasses(t *testing.T) {
	// The register/dispatch shape: deref(arg0+8) = arg1 registered, then
	// the path deref(arg1+4) must also spell as deref(deref(arg0+8)+4).
	in := NewInterner(tab)
	arg0 := in.Root("arg0")
	arg1 := in.Root("arg1")
	in.Union(in.Child(arg0, 8), 0, arg1, 0)
	c := in.Child(arg1, 4)
	forms := in.PathExprs(Path{Node: c, Off: 0}, 2, 16)
	want := tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Sym("arg0"), 8)), 4))
	found := false
	for _, f := range forms {
		if f.Equal(want) {
			found = true
		}
	}
	if !found {
		keys := make([]string, len(forms))
		for i, f := range forms {
			keys[i] = f.String()
		}
		t.Fatalf("chained spelling missing; forms = %v", keys)
	}
	if len(forms) == 0 || !forms[0].Equal(c.Expr()) {
		t.Fatalf("first form is not the canonical spelling: %v", forms)
	}
}

func TestPathExprsBudget(t *testing.T) {
	in := NewInterner(tab)
	base := in.Root("p")
	for i := 0; i < 20; i++ {
		in.Union(in.Child(in.Root(specRoots[i%len(specRoots)]), int64(i)*4), 0, base, 0)
	}
	if got := len(in.PathExprs(Path{Node: base}, 2, 5)); got > 5 {
		t.Fatalf("budget overrun: %d forms", got)
	}
}

func TestStats(t *testing.T) {
	in := NewInterner(tab)
	in.Root("a")
	in.Root("a")
	in.Child(in.Root("a"), 4)
	st := in.Stats()
	if st.Nodes != 2 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not zero")
	}
}

// TestInternBuildsTableNodes: an interner given a table interns that
// table's nodes, even for input built in another table, so its paths
// and spellings are the analysis's own expressions.
func TestInternBuildsTableNodes(t *testing.T) {
	own := new(expr.Table)
	in := NewInterner(own)
	p, ok := in.Intern(tab.Add(tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Sym("arg0"), 8)), 4)), 2))
	if !ok {
		t.Fatal("intern failed")
	}
	steps := 0
	for n := p.Node; n.parent != nil; n = n.parent {
		if n.Expr() != own.Deref(own.Add(n.parent.Expr(), n.off)) {
			t.Fatalf("child %s is not the table's node", n.Expr())
		}
		steps++
	}
	if steps != 2 || in.Root("arg0").Expr() != own.Sym("arg0") {
		t.Fatalf("root is not the table's symbol after %d steps", steps)
	}
}

// TestInternersShareTable: two interners over one table keep their own
// classes but spell every path with the same nodes.
func TestInternersShareTable(t *testing.T) {
	tab := new(expr.Table)
	spell := func() []*expr.Expr {
		in := NewInterner(tab)
		in.Union(in.Child(in.Root("arg0"), 8), 0, in.Root("arg1"), 0)
		return in.PathExprs(Path{Node: in.Child(in.Root("arg1"), 4), Off: 2}, 2, 16)
	}
	a, b := spell(), spell()
	if len(a) < 2 || len(a) != len(b) {
		t.Fatalf("spellings: %v and %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spelling %d: %p vs %p for %s", i, a[i], b[i], a[i])
		}
	}
	chained := tab.Add(tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Sym("arg0"), 8)), 4)), 2)
	if !slices.Contains(a, chained) {
		t.Fatalf("chained spelling is not the table's node: %v", a)
	}
}

// TestStatsSequence pins the counters of a fixed Root/Child/Intern/Union
// sequence, congruence merges and a rejected non-path included.
func TestStatsSequence(t *testing.T) {
	in := NewInterner(tab)
	a, b := in.Root("arg0"), in.Root("arg1")
	in.Union(in.Child(a, 8), 0, b, 0)
	in.Child(b, 4)
	for _, e := range []*expr.Expr{
		tab.Deref(tab.Add(tab.Deref(tab.Add(tab.Sym("arg0"), 8)), 4)),
		tab.Add(tab.Deref(tab.Add(tab.Sym("arg1"), 4)), 12),
		tab.Deref(tab.Sym("sp")),
		tab.Bin(expr.OpMul, tab.Sym("arg0"), tab.Const(2)),
	} {
		in.Intern(e)
	}
	in.Root("arg0")
	want := Stats{Nodes: 7, Hits: 5, Misses: 7, Unions: 2}
	if got := in.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}
