// Package alias implements pointer-aliasing recognition over a
// function's definition pairs (Section III-C).
//
// Two alias classes matter in binary code. Assignment aliases
// (`int *p = x; q = p`) collapse automatically under symbolic analysis —
// both names evaluate to the same expression. Stored-pointer aliases
// (`int *p = x; *(q+4) = p`) do not: `*p` and `*(*(q+4))` are distinct
// expressions. Both engines here recognize definitions of the shape
//
//	deref(base1 + offset1) = base2 + offset2
//
// and expose the data flows the aliasing would otherwise hide by
// synthesizing equivalent definition pairs.
//
// Rewrite is the paper's Algorithm 1: pairwise rewriting of every
// affected pair, quadratic in the alias web and capped. RewriteSSE is
// the follow-up work's replacement (EmTaint, arXiv 2109.12209): the
// stored-pointer facts populate an interned union-find of structured
// symbolic expressions (internal/sse), and variants are enumerated from
// equivalence classes — transitive through chained facts, with no
// pairwise scan and a far higher synthesis budget.
package alias

import (
	"dtaint/internal/expr"
	"dtaint/internal/sse"
	"dtaint/internal/symexec"
)

// aliasEntry is one (d, base, offset) row of the ALIAS set: the memory
// location d holds the pointer value base+offset.
type aliasEntry struct {
	d    *expr.Expr
	base *expr.Expr
	off  int64
}

// dopEntry is one (d, u, ptrs) row of the DOP set: definition d = u whose
// destination dereferences the base pointers ptrs.
type dopEntry struct {
	d    *expr.Expr
	u    *expr.Expr
	ptrs []*expr.Expr
	size int
	addr uint32
}

// MaxNewPairs bounds the number of synthesized alias pairs per function
// under Algorithm 1, guarding against pathological alias webs.
const MaxNewPairs = 512

// MaxNewPairsSSE bounds the SSE engine's synthesis budget. Classes make
// enumeration linear in the real alias web, so the bound exists only as
// a backstop; anything past it is counted in Stats.Dropped, never
// silently discarded.
const MaxNewPairsSSE = 8192

// maxVariantDepth and maxVariantsPerPtr bound the class expansion of a
// single base pointer: depth counts chained-fact substitutions (nested
// handoffs need 2+), the per-pointer cap keeps one mega-class from
// eating the whole budget.
const (
	maxVariantDepth   = 3
	maxVariantsPerPtr = 16
)

// Stats reports what a rewrite pass did. Dropped counts synthesized
// pairs discarded past the engine's budget — the quantity Algorithm 1
// used to lose silently. Intern is zero for the Algorithm 1 path.
type Stats struct {
	Added   int
	Dropped int
	Classes int // alias classes with 2+ members (SSE path only)
	Intern  sse.Stats
}

// Rewrite returns the input definition pairs extended with the alias
// variants of Algorithm 1, built through tab. types carries the
// function's inferred types (used for the "u is a pointer" test). The
// input slice is not modified.
func Rewrite(tab *expr.Table, dps []symexec.DefPair, types map[string]expr.Type) ([]symexec.DefPair, Stats) {
	var st Stats
	var aliases []aliasEntry
	var dop []dopEntry

	// Lines 3-12: collect ALIAS and DOP.
	for _, p := range dps {
		if p.D == nil || p.U == nil || !p.D.IsDeref() {
			continue
		}
		if isPointerValue(p.U, types) {
			if base, off, ok := p.U.BasePlusOffset(); ok {
				if _, isConst := base.ConstVal(); !isConst {
					aliases = append(aliases, aliasEntry{d: p.D, base: base, off: off})
				}
			}
		}
		ptrs := p.D.BasePointers()
		if len(ptrs) > 0 {
			dop = append(dop, dopEntry{d: p.D, u: p.U, ptrs: ptrs, size: p.Size, addr: p.Addr})
		}
	}

	out := append([]symexec.DefPair(nil), dps...)
	seen := make(map[string]bool, len(out))
	for _, p := range out {
		seen[pairKey(p.D, p.U)] = true
	}

	// Lines 13-22: synthesize new definitions through each alias.
	for _, de := range dop {
		for _, ptr := range de.ptrs {
			for _, ae := range aliases {
				if !ae.base.Equal(ptr) {
					continue
				}
				// d.Replace(p, alias - o)
				replacement := tab.Bin(expr.OpSub, ae.d, tab.Const(ae.off))
				if replacement.Equal(ptr) {
					continue // degenerate self-alias
				}
				newD := tab.Subst(de.d, ptr, replacement)
				if newD.Equal(de.d) {
					continue
				}
				k := pairKey(newD, de.u)
				if seen[k] {
					continue
				}
				seen[k] = true
				if st.Added >= MaxNewPairs {
					st.Dropped++
					continue
				}
				out = append(out, symexec.DefPair{D: newD, U: de.u, Addr: de.addr, Size: de.size})
				st.Added++
			}
		}
	}
	return out, st
}

// Classes builds the SSE query engine for a function: every
// stored-pointer definition among dps becomes one union in an
// access-path union-find over tab's nodes. The result answers on-demand
// alias queries (Interner.Alias) and enumerates equivalent spellings
// (Interner.PathExprs) without any pairwise rewriting.
func Classes(tab *expr.Table, dps []symexec.DefPair, types map[string]expr.Type) *sse.Interner {
	in := sse.NewInterner(tab)
	for _, p := range dps {
		if p.D == nil || p.U == nil || !p.D.IsDeref() || !isPointerValue(p.U, types) {
			continue
		}
		if pd, ok := in.Intern(p.D); ok {
			if pu, ok := in.Intern(p.U); ok {
				// value(d's load) = value(u): one class merge instead of
				// a pairwise rewriting round.
				in.Union(pd.Node, pd.Off, pu.Node, pu.Off)
			}
		}
	}
	return in
}

// RewriteSSE returns the input definition pairs extended with alias
// variants derived from SSE equivalence classes. Every stored-pointer
// definition becomes one union in an interned access-path union-find;
// variants are then enumerated per affected base pointer from its
// class, transitively through chained facts (a shape Algorithm 1 cannot
// reach: its synthesized pairs are never re-examined). The input slice
// is not modified; results are deterministic for a given input order.
// The classes and the rewritten definitions are built through a table
// of their own; an analysis calls RewriteSSEIn with its table instead.
func RewriteSSE(dps []symexec.DefPair, types map[string]expr.Type) ([]symexec.DefPair, Stats) {
	return RewriteSSEIn(new(expr.Table), dps, types)
}

// RewriteSSEIn is RewriteSSE building through tab. The input's nodes may
// come from another table: interning rebuilds them in tab, and the
// rewrite compares them by spelling.
func RewriteSSEIn(tab *expr.Table, dps []symexec.DefPair, types map[string]expr.Type) ([]symexec.DefPair, Stats) {
	var st Stats
	in := Classes(tab, dps, types)
	out := append([]symexec.DefPair(nil), dps...)
	if in.ClassCount() == 0 {
		// No alias facts: skip the DOP scan entirely — most functions
		// take this path, so the class engine's overhead stays confined
		// to functions with a real alias web.
		st.Intern = in.Stats()
		return out, st
	}
	var dop []dopEntry
	for _, p := range dps {
		if p.D == nil || p.U == nil {
			continue
		}
		if ptrs := p.D.BasePointers(); len(ptrs) > 0 {
			dop = append(dop, dopEntry{d: p.D, u: p.U, ptrs: ptrs, size: p.Size, addr: p.Addr})
		}
	}
	seen := make(map[string]bool, len(out))
	for _, p := range out {
		seen[pairKey(p.D, p.U)] = true
	}

	for _, de := range dop {
		for _, ptr := range de.ptrs {
			pp, ok := in.Intern(ptr)
			if !ok {
				continue
			}
			for _, form := range in.PathExprs(pp, maxVariantDepth, maxVariantsPerPtr) {
				if form.Equal(ptr) {
					continue
				}
				newD := tab.Subst(de.d, ptr, form)
				if newD.Equal(de.d) {
					continue
				}
				k := pairKey(newD, de.u)
				if seen[k] {
					continue
				}
				seen[k] = true
				if st.Added >= MaxNewPairsSSE {
					st.Dropped++
					continue
				}
				out = append(out, symexec.DefPair{D: newD, U: de.u, Addr: de.addr, Size: de.size})
				st.Added++
			}
		}
	}
	st.Classes = in.ClassCount()
	st.Intern = in.Stats()
	return out, st
}

// pairKey spells a definition pair. RewriteSSE is given nodes of another
// table, so pairs are told apart by spelling, not by node.
//
//dtaintlint:ignore key-identity the benchmark probe passes RewriteSSE another table's nodes until it builds through one table (ROADMAP item 5)
func pairKey(d, u *expr.Expr) string { return d.Key() + "=" + u.Key() }

// isPointerValue decides whether value u holds a pointer: from the type
// map, or structurally (heap identities, the stack pointer, derefs of
// pointer-typed locations, and base+offset forms over those).
func isPointerValue(u *expr.Expr, types map[string]expr.Type) bool {
	if types[u.Key()].IsPointer() { //dtaintlint:ignore key-identity Summary.Types is spelled: the wire format stores it
		return true
	}
	base, _, ok := u.BasePlusOffset()
	if !ok {
		return false
	}
	if name, isSym := base.SymName(); isSym {
		if expr.IsHeapName(name) || name == expr.StackSym {
			return true
		}
		if types[name].IsPointer() {
			return true
		}
	}
	if base.IsDeref() && types[base.Key()].IsPointer() { //dtaintlint:ignore key-identity Summary.Types is spelled: the wire format stores it
		return true
	}
	return false
}
