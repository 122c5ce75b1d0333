// Package sse implements structured symbolic expressions: interned,
// canonicalized access paths over internal/expr, after the authors'
// follow-up work (EmTaint, arXiv 2109.12209) that replaces DTaint's
// pairwise Algorithm 1 with hash-consed expressions and equivalence
// classes.
//
// An access path is a root symbol followed by dereference steps with
// normalized constant offsets: deref(deref(arg0+0x58)+0xEC) is the node
// chain arg0 → child(0x58) → child(0xEC). Every node is hash-consed, so
// two canonically-equal access paths are represented by the *same* node
// pointer and "are these the same path?" is a pointer comparison. A
// union-find with offset potentials over the interned nodes then turns
// "do p and q alias?" into a find-root comparison plus an offset check —
// O(α(n)) per query instead of Algorithm 1's pairwise rewriting.
//
// Identity contract: within one Interner, canonical equality IS pointer
// equality. Code building on this package must compare nodes with ==,
// never through key strings (cmd/dtaintlint rule 5 enforces this).
package sse

import (
	"dtaint/internal/expr"
)

// Node is one interned access-path node. Roots carry a symbol name;
// children represent deref(parent + off). Nodes are created only by an
// Interner and are unique per (parent, off) / root name, so equality is
// pointer identity.
type Node struct {
	parent *Node  // nil for roots
	off    int64  // child step: this = deref(value(parent) + off)
	name   string // root symbol name (roots only)
	ex     *expr.Expr
	id     int // creation order, for deterministic tie-breaks

	// Union-find state (see unionfind.go): value(n) = value(uf) + delta.
	uf    *Node
	delta int64
}

// Parent returns the parent node and step offset (zero value for roots).
func (n *Node) Parent() (*Node, int64) { return n.parent, n.off }

// Name returns the root symbol name ("" for non-roots).
func (n *Node) Name() string { return n.name }

// Expr returns the canonical expression form of the node: Sym(name) for
// roots, deref(parentExpr + off) for children. The expression is built
// once at interning time, so this never allocates.
func (n *Node) Expr() *expr.Expr { return n.ex }

// Path is a canonical pointer value: an interned access-path node plus a
// constant offset. Two Paths denote the same canonical expression iff
// their Node pointers are identical and their offsets are equal, so Path
// is directly comparable with ==.
type Path struct {
	Node *Node
	Off  int64
}

// Expr returns the expression form value(Node) + Off.
func (p Path) Expr() *expr.Expr { return expr.Add(p.Node.Expr(), p.Off) }

// childKey addresses one hash-cons slot: children are unique per
// (parent identity, offset). The parent field is the interned pointer
// itself — the table's structural sharing is what makes canonical
// equality collapse to pointer equality.
type childKey struct {
	parent *Node
	off    int64
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

// Interner owns a hash-cons table and the union-find over its nodes.
// It is not safe for concurrent use; analyses hold one per function (or
// one per resolution pass) so interning stays deterministic.
type Interner struct {
	// roots is the hash-cons slot for root nodes, keyed by the root's
	// symbol NAME — the one string that exists before any node does.
	roots    map[string]*Node //dtaintlint:ignore sse-key-identity the hash-cons table itself: symbol names precede node identity
	children map[childKey]*Node
	members  map[*Node][]*Node // class members, keyed by representative
	// kids indexes each class's children by displacement relative to the
	// representative's value, for congruence closure (see unionfind.go).
	kids     map[*Node]map[int64]*Node
	nodes    int
	hits     uint64
	misses   uint64
	unions   int
	conflict int
}

// NewInterner returns an empty interner. The internal tables are
// allocated lazily on first intern: analyses hold one interner per
// function, and most functions never intern a node, so the empty case
// must cost nothing.
func NewInterner() *Interner {
	return &Interner{}
}

// Stats returns the current table statistics.
func (in *Interner) Stats() Stats {
	return Stats{
		Nodes:     in.nodes,
		Hits:      in.hits,
		Misses:    in.misses,
		Unions:    in.unions,
		Conflicts: in.conflict,
	}
}

func (in *Interner) newNode(n *Node) *Node {
	n.id = in.nodes
	in.nodes++
	n.uf = n
	n.ex = canonicalExpr(n)
	if in.members == nil {
		in.members = make(map[*Node][]*Node)
	}
	in.members[n] = []*Node{n}
	return n
}

func canonicalExpr(n *Node) *expr.Expr {
	if n.parent == nil {
		return expr.Sym(n.name)
	}
	return expr.Deref(expr.Add(n.parent.ex, n.off))
}

// Root interns the root node for a symbol name.
func (in *Interner) Root(name string) *Node {
	if n, ok := in.roots[name]; ok {
		in.hits++
		return n
	}
	in.misses++
	n := in.newNode(&Node{name: name})
	if in.roots == nil {
		in.roots = make(map[string]*Node) //dtaintlint:ignore sse-key-identity the hash-cons table itself: symbol names precede node identity
	}
	in.roots[name] = n
	return n
}

// Child interns the node deref(value(parent) + off).
func (in *Interner) Child(parent *Node, off int64) *Node {
	k := childKey{parent: parent, off: off}
	if n, ok := in.children[k]; ok {
		in.hits++
		return n
	}
	in.misses++
	n := in.newNode(&Node{parent: parent, off: off})
	if in.children == nil {
		in.children = make(map[childKey]*Node)
	}
	in.children[k] = n
	in.registerChild(n)
	return n
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
