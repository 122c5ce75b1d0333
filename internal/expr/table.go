package expr

import (
	"sync"
	"sync/atomic"
)

// Table hash-conses expression nodes. Its constructors normalize their
// result and build each distinct node once: a repeated construction
// finds the node by its kind's identity (a constant by value, a symbol
// by name, a deref by its operand's pointer, a binary op by operator and
// operand pointers) and returns it without allocating or spelling its
// key again.
//
// A table is meant to live as long as one analysis: it holds every node
// it built until it is dropped. It is safe for concurrent use by that
// analysis's workers; the nodes are spread over independently locked
// shards. The zero Table is ready to use and allocates nothing before
// its first construction.
type Table struct {
	shards atomic.Pointer[[tableShards]tableShard]
}

// tableShards is the number of independently locked parts of a Table;
// two workers building at once rarely meet on one lock.
const tableShards = 16

type tableShard struct {
	mu     sync.Mutex
	consts map[int64]*Expr
	syms   map[string]*Expr
	derefs map[*Expr]*Expr
	bins   map[binKey]*Expr
	_      [24]byte // pads the shard to a cache line of its own
}

type binKey struct {
	op   Op
	x, y *Expr
}

// shard returns the shard that holds nodes of structural hash h,
// allocating the shards on the table's first construction.
func (t *Table) shard(h uint32) *tableShard {
	s := t.shards.Load()
	if s == nil {
		s = new([tableShards]tableShard)
		if !t.shards.CompareAndSwap(nil, s) {
			s = t.shards.Load()
		}
	}
	return &s[h%tableShards]
}

// Const returns the constant v. Values in [minSmallConst, maxSmallConst)
// are the shared preallocated nodes whatever the table.
func (t *Table) Const(v int64) *Expr {
	if v >= minSmallConst && v < maxSmallConst {
		return &smallConsts[v-minSmallConst]
	}
	s := t.shard(constHash(v))
	s.mu.Lock()
	e, ok := s.consts[v]
	if !ok {
		if s.consts == nil {
			s.consts = make(map[int64]*Expr)
		}
		e = newConst(v)
		s.consts[v] = e
	}
	s.mu.Unlock()
	return e
}

// Sym returns the symbol named name.
func (t *Table) Sym(name string) *Expr {
	h := strHash(name)
	s := t.shard(h)
	s.mu.Lock()
	e, ok := s.syms[name]
	if !ok {
		if s.syms == nil {
			s.syms = make(map[string]*Expr)
		}
		e = newSym(name, h)
		s.syms[name] = e
	}
	s.mu.Unlock()
	return e
}

// Arg returns the canonical symbol for the i-th formal argument.
func (t *Table) Arg(i int) *Expr { return t.Sym(ArgName(i)) }

// Deref returns a memory access of addr.
func (t *Table) Deref(addr *Expr) *Expr {
	if addr == nil {
		return nil
	}
	if addr.depth >= MaxDepth {
		addr = t.truncated(addr)
	}
	s := t.shard(derefHash(addr))
	s.mu.Lock()
	e, ok := s.derefs[addr]
	if !ok {
		if s.derefs == nil {
			s.derefs = make(map[*Expr]*Expr)
		}
		e = newDeref(addr)
		s.derefs[addr] = e
	}
	s.mu.Unlock()
	return e
}

// Add is shorthand for t.Bin(OpAdd, a, t.Const(off)).
func (t *Table) Add(a *Expr, off int64) *Expr { return t.Bin(OpAdd, a, t.Const(off)) }

// Bin returns the normalized binary operation a op b.
func (t *Table) Bin(op Op, a, b *Expr) *Expr {
	if a == nil || b == nil {
		return nil
	}
	// Constant folding.
	if a.kind == KindConst && b.kind == KindConst {
		if v, ok := foldConst(op, a.val, b.val); ok {
			return t.Const(v)
		}
	}
	switch op {
	case OpAdd:
		return t.normalizeAdd(a, b)
	case OpSub:
		// a - c  ==  a + (-c): keeps all base+offset forms additive.
		if b.kind == KindConst {
			return t.normalizeAdd(a, t.Const(-b.val))
		}
		if a.Equal(b) {
			return t.Const(0)
		}
	case OpMul:
		if a.kind == KindConst {
			a, b = b, a // canonical: constant on the right
		}
		if b.kind == KindConst {
			switch b.val {
			case 0:
				return t.Const(0)
			case 1:
				return a
			}
		}
	case OpAnd:
		if b.kind == KindConst && b.val == 0 {
			return t.Const(0)
		}
	case OpOr, OpXor:
		if b.kind == KindConst && b.val == 0 {
			return a
		}
	case OpShl, OpShr:
		if b.kind == KindConst && b.val == 0 {
			return a
		}
	}
	return t.rawBin(op, a, b)
}

// normalizeAdd flattens nested additions and produces the canonical
// "base + constant" form with the constant folded and placed last.
func (t *Table) normalizeAdd(a, b *Expr) *Expr {
	var buf [8]*Expr
	terms, c := addTerms(buf[:0], a, 0)
	terms, c = addTerms(terms, b, c)
	if len(terms) == 0 {
		return t.Const(c)
	}
	// Canonical order for symbolic terms: sort by key so x+y == y+x.
	// Sums have a handful of terms, so an insertion sort suffices.
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && terms[j].key < terms[j-1].key; j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	out := terms[0]
	for _, x := range terms[1:] {
		out = t.rawBin(OpAdd, out, x)
	}
	if c != 0 {
		out = t.rawBin(OpAdd, out, t.Const(c))
	}
	return out
}

// addTerms appends the non-constant terms of the sum e to terms and adds
// its constants to c.
func addTerms(terms []*Expr, e *Expr, c int64) ([]*Expr, int64) {
	switch {
	case e.kind == KindConst:
		return terms, c + e.val
	case e.kind == KindBinOp && e.op == OpAdd:
		terms, c = addTerms(terms, e.x, c)
		return addTerms(terms, e.y, c)
	}
	return append(terms, e), c
}

// rawBin builds a op b as given, truncating it at MaxDepth.
func (t *Table) rawBin(op Op, a, b *Expr) *Expr {
	if max(a.depth, b.depth) >= MaxDepth {
		return t.truncated(t.rawBinNoLimit(op, a, b))
	}
	return t.rawBinNoLimit(op, a, b)
}

func (t *Table) rawBinNoLimit(op Op, a, b *Expr) *Expr {
	s := t.shard(binHash(op, a, b))
	k := binKey{op, a, b}
	s.mu.Lock()
	e, ok := s.bins[k]
	if !ok {
		if s.bins == nil {
			s.bins = make(map[binKey]*Expr)
		}
		e = newBin(op, a, b)
		s.bins[k] = e
	}
	s.mu.Unlock()
	return e
}

// Subst returns e with every occurrence of old replaced by new, built
// through t. The result is re-normalized.
func (t *Table) Subst(e, old, new *Expr) *Expr {
	if e == nil || old == nil || new == nil {
		return e
	}
	if e.Equal(old) {
		return new
	}
	switch e.kind {
	case KindDeref:
		nx := t.Subst(e.x, old, new)
		if nx == e.x {
			return e
		}
		return t.Deref(nx)
	case KindBinOp:
		nx := t.Subst(e.x, old, new)
		ny := t.Subst(e.y, old, new)
		if nx == e.x && ny == e.y {
			return e
		}
		return t.Bin(e.op, nx, ny)
	}
	return e
}

// MapSyms rewrites every symbol in e through f, built through t; f
// returns nil to keep a symbol unchanged.
func (t *Table) MapSyms(e *Expr, f func(name string) *Expr) *Expr {
	switch e.kind {
	case KindSym:
		if r := f(e.name); r != nil {
			return r
		}
	case KindDeref:
		nx := t.MapSyms(e.x, f)
		if nx == e.x {
			return e
		}
		return t.Deref(nx)
	case KindBinOp:
		nx := t.MapSyms(e.x, f)
		ny := t.MapSyms(e.y, f)
		if nx == e.x && ny == e.y {
			return e
		}
		return t.Bin(e.op, nx, ny)
	}
	return e
}

// Structural hashes. Equal keys give equal hashes, so a Table keeps
// every node of one key in one shard; the hash decides nothing else.

func constHash(v int64) uint32 { return mix(uint32(v) ^ uint32(v>>32)) }

func strHash(s string) uint32 {
	// FNV-1a, 32-bit.
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return mix(h)
}

func derefHash(x *Expr) uint32 { return mix(x.hash ^ 0x9e3779b9) }

func binHash(op Op, x, y *Expr) uint32 {
	return mix(uint32(op)*0x85ebca6b ^ x.hash*0xc2b2ae35 ^ y.hash)
}

// mix is MurmurHash3's 32-bit finalizer.
func mix(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
