package alias

import (
	"fmt"
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/symexec"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

func dp(d, u *expr.Expr) symexec.DefPair { return symexec.DefPair{D: d, U: u} }

func hasPair(dps []symexec.DefPair, dKey, uKey string) bool {
	for _, p := range dps {
		if p.D.Key() == dKey && p.U.Key() == uKey {
			return true
		}
	}
	return false
}

func TestStoredPointerAlias(t *testing.T) {
	// The paper's example: int *p = x; *(q+4) = p. After `deref(q+4) = p`
	// the pair `deref(p) = v` must gain the variant `deref(deref(q+4)) = v`.
	p := tab.Sym("p")
	q := tab.Sym("q")
	v := tab.Const(7)
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}

	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), p), // *(q+4) = p
		dp(tab.Deref(p), v),             // *p = 7
	}
	out, _ := Rewrite(tab, in, types)
	want := tab.Deref(tab.Deref(tab.Add(q, 4))).Key()
	if !hasPair(out, want, v.Key()) {
		t.Fatalf("alias variant %s = %s missing; got %d pairs", want, v, len(out))
	}
}

func TestAliasWithOffsets(t *testing.T) {
	// deref(q+4) = p + 8; then deref(p+12) = v gains
	// deref((deref(q+4) - 8) + 12) = deref(deref(q+4)+4) = v.
	p := tab.Sym("p")
	q := tab.Sym("q")
	v := tab.Sym("val")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}

	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), tab.Add(p, 8)),
		dp(tab.Deref(tab.Add(p, 12)), v),
	}
	out, _ := Rewrite(tab, in, types)
	want := tab.Deref(tab.Add(tab.Deref(tab.Add(q, 4)), 4)).Key()
	if !hasPair(out, want, v.Key()) {
		keys := make([]string, 0, len(out))
		for _, o := range out {
			keys = append(keys, o.D.Key()+"="+o.U.Key())
		}
		t.Fatalf("offset alias missing %s; got %v", want, keys)
	}
}

func TestMultiBasePointers(t *testing.T) {
	// The paper's multi-base example: deref(deref(arg0+0x58)+0xEC) has
	// base pointers arg0 and deref(arg0+0x58); an alias for the inner
	// base must rewrite the outer variable.
	arg0 := tab.Arg(0)
	inner := tab.Deref(tab.Add(arg0, 0x58))
	outer := tab.Deref(tab.Add(inner, 0xEC))
	g := tab.Sym("g")
	v := tab.Sym("v")
	types := map[string]expr.Type{inner.Key(): expr.TypePtr}

	in := []symexec.DefPair{
		dp(tab.Deref(g), inner), // *g = deref(arg0+0x58): alias of the inner base
		dp(outer, v),
	}
	out, _ := Rewrite(tab, in, types)
	// mem[g] holds the inner pointer value, so the field is reachable as
	// deref(deref(g) + 0xEC).
	want := tab.Deref(tab.Add(tab.Deref(g), 0xEC)).Key()
	if !hasPair(out, want, v.Key()) {
		keys := make([]string, 0, len(out))
		for _, o := range out {
			keys = append(keys, o.D.Key())
		}
		t.Fatalf("multi-base alias missing %s; destinations: %v", want, keys)
	}
}

func TestNonPointerValueIgnored(t *testing.T) {
	q := tab.Sym("q")
	n := tab.Sym("n") // not typed as a pointer
	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), n),
		dp(tab.Deref(n), tab.Const(1)),
	}
	out, _ := Rewrite(tab, in, nil)
	if len(out) != len(in) {
		t.Fatalf("non-pointer store produced aliases: %d pairs", len(out))
	}
}

func TestHeapPointerIsStructurallyPointer(t *testing.T) {
	// Heap identity symbols count as pointers without a type entry.
	h := tab.Sym(expr.HeapName("site1"))
	q := tab.Sym("q")
	v := tab.Const(3)
	in := []symexec.DefPair{
		dp(tab.Deref(q), h),
		dp(tab.Deref(h), v),
	}
	out, _ := Rewrite(tab, in, nil)
	want := tab.Deref(tab.Deref(q)).Key()
	if !hasPair(out, want, v.Key()) {
		t.Fatal("heap pointer alias not recognized")
	}
}

func TestIdempotentOnRewrittenSet(t *testing.T) {
	p := tab.Sym("p")
	q := tab.Sym("q")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), p),
		dp(tab.Deref(p), tab.Const(7)),
	}
	once, _ := Rewrite(tab, in, types)
	twice, _ := Rewrite(tab, once, types)
	// A second pass may add derived pairs but must not duplicate existing
	// ones.
	seen := map[string]int{}
	for _, o := range twice {
		seen[o.D.Key()+"="+o.U.Key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate pair %s after second rewrite", k)
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	p := tab.Sym("p")
	q := tab.Sym("q")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), p),
		dp(tab.Deref(p), tab.Const(7)),
	}
	out, _ := Rewrite(tab, in, types)
	if len(in) != 2 {
		t.Fatal("input length changed")
	}
	if len(out) <= 2 {
		t.Fatal("no alias pair added")
	}
}

func TestBlowupBounded(t *testing.T) {
	// Many aliases of the same pointer must not explode quadratically
	// past the cap.
	p := tab.Sym("p")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	var in []symexec.DefPair
	for i := 0; i < 100; i++ {
		q := tab.Sym("q" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		in = append(in, dp(tab.Deref(q), p))
	}
	for i := 0; i < 100; i++ {
		in = append(in, dp(tab.Deref(tab.Add(p, int64(i*4))), tab.Const(int64(i))))
	}
	out, _ := Rewrite(tab, in, types)
	if len(out) > len(in)+MaxNewPairs {
		t.Fatalf("alias blowup: %d pairs", len(out))
	}
}

func TestConstantBaseIgnored(t *testing.T) {
	// Absolute-address pointers (constant bases) are not alias bases.
	q := tab.Sym("q")
	in := []symexec.DefPair{
		dp(tab.Deref(q), tab.Const(0x670B0)),
	}
	out, _ := Rewrite(tab, in, map[string]expr.Type{tab.Const(0x670B0).Key(): expr.TypeIntPtr})
	if len(out) != 1 {
		t.Fatalf("constant alias created: %d pairs", len(out))
	}
}

func TestRewriteSSEMatchesAlgorithm1Shapes(t *testing.T) {
	// Every Algorithm 1 shape must still fall out of the class engine.
	p := tab.Sym("p")
	q := tab.Sym("q")
	v := tab.Const(7)
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), p),
		dp(tab.Deref(p), v),
	}
	out, st := RewriteSSE(in, types)
	want := tab.Deref(tab.Deref(tab.Add(q, 4))).Key()
	if !hasPair(out, want, v.Key()) {
		t.Fatalf("alias variant %s missing; got %d pairs", want, len(out))
	}
	if st.Added == 0 || st.Classes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRewriteSSEOffsets(t *testing.T) {
	p := tab.Sym("p")
	q := tab.Sym("q")
	v := tab.Sym("val")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(q, 4)), tab.Add(p, 8)),
		dp(tab.Deref(tab.Add(p, 12)), v),
	}
	out, _ := RewriteSSE(in, types)
	want := tab.Deref(tab.Add(tab.Deref(tab.Add(q, 4)), 4)).Key()
	if !hasPair(out, want, v.Key()) {
		keys := make([]string, 0, len(out))
		for _, o := range out {
			keys = append(keys, o.D.Key()+"="+o.U.Key())
		}
		t.Fatalf("offset alias missing %s; got %v", want, keys)
	}
}

func TestRewriteSSETransitiveChain(t *testing.T) {
	// The chained-handoff shape Algorithm 1 cannot reach: its synthesized
	// pairs are never re-examined, so with facts
	//
	//	deref(a+8) = b   and   deref(b+4) = s
	//
	// a write through s is rewritten only to deref(b+4) — never to the
	// a-rooted deref(deref(a+8)+4). The class engine closes the chain.
	a := tab.Arg(0)
	b := tab.Arg(1)
	s := tab.Sym(expr.StackSym)
	v := tab.Sym("taint")
	types := map[string]expr.Type{b.Key(): expr.TypePtr}
	in := []symexec.DefPair{
		dp(tab.Deref(tab.Add(a, 8)), b),
		dp(tab.Deref(tab.Add(b, 4)), s),
		dp(tab.Deref(s), v),
	}
	chained := tab.Deref(tab.Deref(tab.Add(tab.Deref(tab.Add(a, 8)), 4))).Key()

	old, _ := Rewrite(tab, in, types)
	if hasPair(old, chained, v.Key()) {
		t.Fatal("Algorithm 1 unexpectedly found the chained variant — SSE ablation would be vacuous")
	}
	out, st := RewriteSSE(in, types)
	if !hasPair(out, chained, v.Key()) {
		keys := make([]string, 0, len(out))
		for _, o := range out {
			keys = append(keys, o.D.Key())
		}
		t.Fatalf("chained variant %s missing; destinations: %v", chained, keys)
	}
	if st.Classes == 0 {
		t.Fatalf("no classes recorded: %+v", st)
	}
}

func TestRewriteSSEDeterministic(t *testing.T) {
	p := tab.Sym("p")
	q := tab.Sym("q")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	var in []symexec.DefPair
	for i := 0; i < 40; i++ {
		in = append(in, dp(tab.Deref(tab.Add(q, int64(i*4))), p))
		in = append(in, dp(tab.Deref(tab.Add(p, int64(i*8))), tab.Const(int64(i))))
	}
	a, _ := RewriteSSE(in, types)
	b, _ := RewriteSSE(in, types)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic pair count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].D.Equal(b[i].D) || !a[i].U.Equal(b[i].U) {
			t.Fatalf("pair %d differs: %s vs %s", i, a[i].D, b[i].D)
		}
	}
}

func TestRewriteDroppedCounted(t *testing.T) {
	// Overflow the Algorithm 1 cap: the overflow must be counted, and
	// the emitted pairs must match the historical capped output.
	p := tab.Sym("p")
	types := map[string]expr.Type{p.Key(): expr.TypeIntPtr}
	var in []symexec.DefPair
	for i := 0; i < 40; i++ {
		q := tab.Sym(fmt.Sprintf("q%02d", i))
		in = append(in, dp(tab.Deref(q), p))
	}
	for i := 0; i < 40; i++ {
		in = append(in, dp(tab.Deref(tab.Add(p, int64(i*4))), tab.Const(int64(i))))
	}
	out, st := Rewrite(tab, in, types)
	if st.Added != MaxNewPairs {
		t.Fatalf("added = %d, want cap %d", st.Added, MaxNewPairs)
	}
	if st.Dropped != 40*40-MaxNewPairs {
		t.Fatalf("dropped = %d, want %d", st.Dropped, 40*40-MaxNewPairs)
	}
	if len(out) != len(in)+MaxNewPairs {
		t.Fatalf("output pairs = %d", len(out))
	}

	// The same input stays within the class engine's budget: every
	// handoff variant is synthesized, none dropped, and the intern
	// table both shares and creates nodes.
	_, sst := RewriteSSE(in, types)
	if sst.Added != 600 || sst.Dropped != 0 {
		t.Fatalf("SSE added/dropped = %d/%d, want 600/0", sst.Added, sst.Dropped)
	}
	if hr := sst.Intern.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("SSE intern hit ratio = %v (%+v), want strictly between 0 and 1", hr, sst.Intern)
	}
}
