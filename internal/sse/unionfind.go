package sse

import (
	"slices"
	"sort"

	"dtaint/internal/expr"
)

// The union-find tracks value equalities between access paths with
// offset potentials: every node carries delta such that
//
//	value(n) = value(n.uf) + n.delta
//
// so a class stores not just "these paths alias" but the exact constant
// displacement between any two members. A stored-pointer definition
// deref(b1+o1) = b2+o2 (Algorithm 1's trigger pattern) becomes one
// Union call, and every later alias question is a find-root comparison.
//
// Unions maintain congruence closure over the dereference step: when
// two classes merge, children reading the same displacement off the
// merged value are unioned too, so deref(p+o) and deref(q+o) land in
// one class whenever p and q alias. New children are checked against
// the class child index at interning time for the same reason.

// Find returns n's class representative and n's displacement from it
// (value(n) = value(rep) + disp), compressing paths as it goes.
func (in *Interner) Find(n *Node) (rep *Node, disp int64) {
	if n.uf == n {
		return n, 0
	}
	r, d := in.Find(n.uf)
	n.uf = r
	n.delta += d
	return r, n.delta
}

// Union asserts value(a) + da == value(b) + db. It returns false when
// the two nodes are already in one class with a contradictory
// displacement; the assertion is then ignored and counted in Stats
// (over-approximate joins would silently merge distinct offsets).
func (in *Interner) Union(a *Node, da int64, b *Node, db int64) bool {
	ra, pa := in.Find(a)
	rb, pb := in.Find(b)
	// value(ra) = value(a) - pa, value(rb) = value(b) - pb, and the
	// assertion gives value(a) - value(b) = db - da.
	if ra == rb {
		if pa-pb != db-da {
			in.conflict++
			return false
		}
		return true
	}
	// Deterministic representative: the earlier-interned node wins, so
	// member order is a pure function of the interning sequence.
	if rb.id < ra.id {
		ra, rb = rb, ra
		pa, pb = pb, pa
		da, db = db, da
	}
	// value(rb) = value(b) - pb = value(a) + da - db - pb
	//           = value(ra) + pa + da - db - pb.
	shift := pa + da - db - pb
	rb.uf = ra
	rb.delta = shift
	in.members[ra] = append(in.members[ra], in.members[rb]...)
	delete(in.members, rb)
	in.unions++

	// Congruence: fold rb's child index into ra's, re-keyed by rb's new
	// displacement; children now reading the same address are unioned.
	// Collisions are collected first and resolved afterwards, in sorted
	// key order, so the merge cascade is deterministic.
	if kb := in.kids[rb]; len(kb) > 0 {
		ka := in.kids[ra]
		if ka == nil {
			ka = make(map[int64]*Node, len(kb))
			in.kids[ra] = ka
		}
		keys := make([]int64, 0, len(kb))
		for k := range kb {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		type collision struct{ x, y *Node }
		var merges []collision
		for _, k := range keys {
			c := kb[k]
			if prior, ok := ka[k+shift]; ok {
				merges = append(merges, collision{prior, c})
				continue
			}
			ka[k+shift] = c
		}
		delete(in.kids, rb)
		for _, m := range merges {
			in.Union(m.x, 0, m.y, 0)
		}
	}
	return true
}

// registerChild indexes a freshly interned child under its class-
// relative displacement and unions it with a congruent sibling when one
// already exists (two spellings of the same load address).
func (in *Interner) registerChild(n *Node) {
	rp, dp := in.Find(n.parent)
	key := n.off + dp
	km := in.kids[rp]
	if km == nil {
		if in.kids == nil {
			in.kids = make(map[*Node]map[int64]*Node)
		}
		km = make(map[int64]*Node, 1)
		in.kids[rp] = km
	}
	if sibling, ok := km[key]; ok {
		in.Union(sibling, 0, n, 0)
		return
	}
	km[key] = n
}

// SameClass reports whether a and b are in one equivalence class.
func (in *Interner) SameClass(a, b *Node) bool {
	ra, _ := in.Find(a)
	rb, _ := in.Find(b)
	return ra == rb
}

// Alias reports whether two paths denote the same value: same class and
// equal cumulative displacement. This is the O(1) replacement for
// Algorithm 1's pairwise rewriting.
func (in *Interner) Alias(p, q Path) bool {
	rp, dp := in.Find(p.Node)
	rq, dq := in.Find(q.Node)
	return rp == rq && dp+p.Off == dq+q.Off
}

// Members returns n's equivalence class in deterministic order: the
// representative's members list, which grows by interning order and
// union concatenation. The returned slice is owned by the interner.
func (in *Interner) Members(n *Node) []*Node {
	r, _ := in.Find(n)
	return in.members[r]
}

// ClassCount returns the number of equivalence classes with 2+ members.
func (in *Interner) ClassCount() int {
	c := 0
	for _, m := range in.members {
		if len(m) > 1 {
			c++
		}
	}
	return c
}

// maxNodeForms bounds the spellings generated per node during variant
// expansion, keeping pathological alias webs from exploding; overflow
// past the bound is truncated (PathExprs callers see at most max
// results anyway).
const maxNodeForms = 64

// PathExprs enumerates expression spellings of value(p.Node) + p.Off,
// rewriting through the alias classes of every node along the access
// path, up to depth class substitutions per chain and at most max
// results. The first result is always the canonical spelling itself;
// order is deterministic (member order along the chain). Every spelling
// is a node of the interner's table, so equal spellings are one pointer.
func (in *Interner) PathExprs(p Path, depth, max int) []*expr.Expr {
	if max <= 0 {
		max = 1
	}
	var out []*expr.Expr
	for _, ne := range in.nodeExprs(p.Node, depth) {
		// Distinct spellings of one class must all survive (that is the
		// point of expansion); only repeats of one spelling are dropped.
		e := in.tab.Add(ne, p.Off)
		if slices.Contains(out, e) {
			continue
		}
		out = append(out, e)
		if len(out) >= max {
			break
		}
	}
	return out
}

// nodeExprs returns expression forms of value(n): each class member's
// spelling, with the member's own parent chain recursively expanded
// while depth remains. Cycles through self-referential classes are cut
// by the depth bound.
func (in *Interner) nodeExprs(n *Node, depth int) []*expr.Expr {
	if depth <= 0 {
		return []*expr.Expr{n.Expr()}
	}
	_, dn := in.Find(n)
	var out []*expr.Expr
	for _, m := range in.Members(n) {
		if len(out) >= maxNodeForms {
			break
		}
		_, dm := in.Find(m)
		// value(n) = value(m) + (dn - dm).
		shift := dn - dm
		if m.parent == nil {
			out = append(out, in.tab.Add(m.ex, shift))
			continue
		}
		for _, pe := range in.nodeExprs(m.parent, depth-1) {
			if len(out) >= maxNodeForms {
				break
			}
			out = append(out, in.tab.Add(in.tab.Deref(in.tab.Add(pe, m.off)), shift))
		}
	}
	return out
}
