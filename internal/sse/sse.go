// Package sse implements structured symbolic expressions: interned,
// canonicalized access paths over internal/expr, after the authors'
// follow-up work (EmTaint, arXiv 2109.12209) that replaces DTaint's
// pairwise Algorithm 1 with hash-consed expressions and equivalence
// classes.
//
// An access path is a root symbol followed by dereference steps with
// normalized constant offsets: deref(deref(arg0+0x58)+0xEC) is the node
// chain arg0 → child(0x58) → child(0xEC). The nodes are those of the
// analysis's expr.Table, which hash-conses every expression it builds,
// so two canonically-equal access paths are represented by the *same*
// node pointer and "are these the same path?" is a pointer comparison.
// This package adds only a union-find with offset potentials over the
// table's nodes, which turns "do p and q alias?" into a find-root
// comparison plus an offset check — O(α(n)) per query instead of
// Algorithm 1's pairwise rewriting.
//
// Identity contract: within one Interner, canonical equality IS pointer
// equality. Code building on this package must compare nodes with ==,
// never through key strings (cmd/dtaintlint rule 5 enforces this).
package sse

import (
	"dtaint/internal/expr"
)

// Node is one interned access-path node: a Sym node (a root) or a
// Deref node (a child) of the interner's expr.Table, plus its
// union-find state. Children represent deref(value(parent) + off).
// Nodes are created only by an Interner, one per table node, so
// equality is pointer identity.
type Node struct {
	ex     *expr.Expr
	parent *Node // nil for roots
	off    int64 // child step: this = deref(value(parent) + off)
	id     int   // creation order, for deterministic tie-breaks

	// Union-find state (see unionfind.go): value(n) = value(uf) + delta.
	uf    *Node
	delta int64
}

// Expr returns the node's expression: the table's Sym(name) for roots,
// its deref(parentExpr + off) for children.
func (n *Node) Expr() *expr.Expr { return n.ex }

// Path is a canonical pointer value: an interned access-path node plus a
// constant offset. Two Paths denote the same canonical expression iff
// their Node pointers are identical and their offsets are equal, so Path
// is directly comparable with ==.
type Path struct {
	Node *Node
	Off  int64
}

// Stats reports the interner's table shape and hit rate.
type Stats struct {
	Nodes     int    // interned nodes (roots + children)
	Hits      uint64 // lookups answered from the table
	Misses    uint64 // lookups that created a node
	Unions    int    // class merges performed
	Conflicts int    // contradictory offset assertions ignored
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Interner is a union-find over the access-path nodes of one
// expr.Table. It is not safe for concurrent use; analyses hold one per
// function (or one per resolution pass) so interning stays
// deterministic. Several interners may share one table: each keeps its
// own classes over the same nodes.
type Interner struct {
	tab     *expr.Table
	nodes   map[*expr.Expr]*Node // union-find state, by table node
	members map[*Node][]*Node    // class members, keyed by representative
	// kids indexes each class's children by displacement relative to the
	// representative's value, for congruence closure (see unionfind.go).
	kids     map[*Node]map[int64]*Node
	hits     uint64
	misses   uint64
	unions   int
	conflict int
}

// NewInterner returns an empty interner over tab's nodes. Its maps are
// allocated lazily on first intern: analyses hold one interner per
// function, and most functions never intern a node, so the empty case
// must cost nothing.
func NewInterner(tab *expr.Table) *Interner { return &Interner{tab: tab} }

// Stats returns the current table statistics.
func (in *Interner) Stats() Stats {
	return Stats{
		Nodes:     len(in.nodes),
		Hits:      in.hits,
		Misses:    in.misses,
		Unions:    in.unions,
		Conflicts: in.conflict,
	}
}

// node returns the node of table node ex, creating it as the child
// (parent, off) — or a root, for a nil parent — on first sight.
func (in *Interner) node(ex *expr.Expr, parent *Node, off int64) *Node {
	if n, ok := in.nodes[ex]; ok {
		in.hits++
		return n
	}
	in.misses++
	n := &Node{ex: ex, parent: parent, off: off, id: len(in.nodes)}
	n.uf = n
	if in.nodes == nil {
		in.nodes = make(map[*expr.Expr]*Node)
		in.members = make(map[*Node][]*Node)
	}
	in.nodes[ex] = n
	in.members[n] = []*Node{n}
	if parent != nil {
		in.registerChild(n)
	}
	return n
}

// Root interns the root node for a symbol name.
func (in *Interner) Root(name string) *Node { return in.node(in.tab.Sym(name), nil, 0) }

// Child interns the node deref(value(parent) + off).
func (in *Interner) Child(parent *Node, off int64) *Node {
	return in.node(in.tab.Deref(in.tab.Add(parent.ex, off)), parent, off)
}

// Intern canonicalizes a pointer expression into (node, offset) form.
// It succeeds for symbols, dereference chains, and base+constant sums
// over those — exactly the access-path fragment of the expression
// language. Commutative and subtractive offset spellings normalize
// identically because internal/expr already canonicalizes additions
// (constant folded to the right), so equal-valued inputs always intern
// to the identical node pointer.
func (in *Interner) Intern(e *expr.Expr) (Path, bool) {
	if e == nil {
		return Path{}, false
	}
	base, off, ok := e.BasePlusOffset()
	if !ok {
		return Path{}, false
	}
	if name, isSym := base.SymName(); isSym {
		return Path{Node: in.Root(name), Off: off}, true
	}
	if addr, isDeref := base.DerefAddr(); isDeref {
		p, ok := in.Intern(addr)
		if !ok {
			return Path{}, false
		}
		return Path{Node: in.Child(p.Node, p.Off), Off: off}, true
	}
	return Path{}, false
}
