// Package expr implements the symbolic expression language DTaint uses to
// describe variables at the binary level.
//
// Following Section III-B of the paper, a variable is described by the
// address expression of the memory that holds it: absolute addresses are
// constants, indirect accesses are "base + offset" forms, and deref marks a
// memory access. For example the instruction `LDR R1, [R5, 0x4C]` is
// described as `R1 = deref(R5 + 0x4C)`.
//
// Expressions are immutable; all constructors normalize their result
// (constant folding, canonical base+offset ordering) so that structurally
// equal program values compare equal by Key().
package expr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the expression variants.
type Kind int

// Expression kinds.
const (
	KindConst Kind = iota + 1
	KindSym
	KindDeref
	KindBinOp
)

// Op is a binary operator.
type Op int

// Binary operators. Add and Mul are canonicalized (commutative).
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
)

var opNames = map[Op]string{
	OpAdd: "+",
	OpSub: "-",
	OpMul: "*",
	OpAnd: "&",
	OpOr:  "|",
	OpXor: "^",
	OpShl: "<<",
	OpShr: ">>",
}

// String returns the operator's symbol.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "op?"
}

// MaxDepth bounds expression nesting. Deeper expressions are truncated to an
// opaque symbol; this keeps pathological programs (deep pointer chases,
// unbounded loops folded once) from exploding the analysis.
const MaxDepth = 12

// Expr is an immutable symbolic expression.
type Expr struct {
	kind Kind
	val  int64  // KindConst
	name string // KindSym
	op   Op     // KindBinOp
	x, y *Expr  // operands: x for Deref; x,y for BinOp

	depth int
	key   string // canonical form, computed at construction
}

// Well-known symbol names used across the analysis.
const (
	// TaintSym marks attacker-controlled data written by an input source.
	// Site-specific taint symbols share the same prefix (see TaintName).
	TaintSym = "taint"
	// StackSym is the symbolic initial stack pointer of a function.
	StackSym = "sp"
	// HeapPrefix begins the name of heap-object identity symbols
	// (Section III-E: heap pointers are identified by hashing the callsite
	// chain from the use of the pointer to the allocation).
	HeapPrefix = "heap_"
)

// TaintName returns the site-specific taint symbol for data introduced by
// an input source (e.g. "taint_recv_67240"). Site-specific names let the
// detector attribute a vulnerability to its exact source callsite.
func TaintName(source string, site uint64) string {
	return TaintSym + "_" + source + "_" + strconv.FormatUint(site, 16)
}

// IsTaintName reports whether name denotes attacker-controlled data.
func IsTaintName(name string) bool { return strings.HasPrefix(name, TaintSym) }

// TaintSource extracts the source function name from a taint symbol
// produced by TaintName; ok is false for the generic TaintSym.
func TaintSource(name string) (source string, site uint64, ok bool) {
	if !strings.HasPrefix(name, TaintSym+"_") {
		return "", 0, false
	}
	rest := name[len(TaintSym)+1:]
	i := strings.LastIndexByte(rest, '_')
	if i <= 0 {
		return "", 0, false
	}
	site, err := strconv.ParseUint(rest[i+1:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:i], site, true
}

// HeapName returns the heap-identity symbol for an allocation reached
// through the given callsite chain.
func HeapName(chain string) string { return HeapPrefix + shortHash(chain) }

// IsHeapName reports whether name is a heap-identity symbol.
func IsHeapName(name string) bool { return strings.HasPrefix(name, HeapPrefix) }

// RehashHeap derives a new heap identity by extending the callsite chain,
// keeping two allocations from distinct callsite chains distinct
// (Listing 1 of the paper: x = B(); y = B() must not alias).
func RehashHeap(name string, callsite uint64) string {
	return HeapName(name + "@" + strconv.FormatUint(callsite, 16))
}

// Const returns a constant expression. Values in [minSmallConst,
// maxSmallConst) share one preallocated node each.
func Const(v int64) *Expr {
	if v >= minSmallConst && v < maxSmallConst {
		return &smallConsts[v-minSmallConst]
	}
	return &Expr{kind: KindConst, val: v, depth: 1, key: strconv.FormatInt(v, 10)}
}

// The shared constant range covers the immediates and stack-frame
// offsets the analysis builds: counted over the four benchmark
// workloads, 99.95% of study's constant constructions fall in it
// (98.96% of screen's, 99.89% of diff's). Nearly all of the rest are
// absolute addresses of 0x10000 and above, which no small table covers.
const (
	minSmallConst = -2048
	maxSmallConst = 2048
)

// smallConsts is filled once at start-up and never written again.
var smallConsts [maxSmallConst - minSmallConst]Expr

func init() {
	for i := range smallConsts {
		v := int64(i) + minSmallConst
		smallConsts[i] = Expr{kind: KindConst, val: v, depth: 1, key: strconv.FormatInt(v, 10)}
	}
}

// Sym returns a named symbolic value (e.g. "arg0", "ret_foo_1c", "taint").
func Sym(name string) *Expr {
	e := &Expr{kind: KindSym, name: name, depth: 1}
	e.key = name
	return e
}

// Arg returns the canonical symbol for the i-th formal argument.
func Arg(i int) *Expr { return Sym(ArgName(i)) }

// ArgName returns the canonical name of the i-th formal argument symbol.
func ArgName(i int) string { return "arg" + strconv.Itoa(i) }

// ArgIndex reports whether name is a formal-argument symbol and its index.
func ArgIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, "arg") {
		return 0, false
	}
	n, err := strconv.Atoi(name[3:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// RetName returns the canonical name for the return symbol of a callsite.
// The callsite is identified by the callee name and the call address, which
// makes the symbol unique per call site as required by Section III-B.
func RetName(callee string, site uint64) string {
	return "ret_" + callee + "_" + strconv.FormatUint(site, 16)
}

// IsRetSym reports whether name is a callsite-return symbol.
func IsRetSym(name string) bool { return strings.HasPrefix(name, "ret_") }

// Taint returns the canonical taint symbol.
func Taint() *Expr { return Sym(TaintSym) }

// Deref returns a memory access of addr.
func Deref(addr *Expr) *Expr {
	if addr == nil {
		return nil
	}
	if addr.depth >= MaxDepth {
		addr = truncated(addr)
	}
	e := &Expr{kind: KindDeref, x: addr, depth: addr.depth + 1}
	e.key = "deref(" + addr.key + ")"
	return e
}

// truncated replaces an over-deep expression with an opaque symbol whose
// name is derived from the original key, so equal expressions still collapse
// to equal symbols.
func truncated(e *Expr) *Expr {
	return Sym("opaque_" + shortHash(e.key))
}

// Hash returns a short stable hash of s, used to derive deterministic
// symbol names (heap identities, string-length symbols) from expression
// keys.
func Hash(s string) string { return shortHash(s) }

func shortHash(s string) string {
	// FNV-1a, 64-bit.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return strconv.FormatUint(h, 16)
}

// Bin returns the normalized binary operation a op b.
func Bin(op Op, a, b *Expr) *Expr {
	if a == nil || b == nil {
		return nil
	}
	// Constant folding.
	if a.kind == KindConst && b.kind == KindConst {
		if v, ok := foldConst(op, a.val, b.val); ok {
			return Const(v)
		}
	}
	switch op {
	case OpAdd:
		return normalizeAdd(a, b)
	case OpSub:
		// a - c  ==  a + (-c): keeps all base+offset forms additive.
		if b.kind == KindConst {
			return normalizeAdd(a, Const(-b.val))
		}
		if a.Equal(b) {
			return Const(0)
		}
	case OpMul:
		if a.kind == KindConst {
			a, b = b, a // canonical: constant on the right
		}
		if b.kind == KindConst {
			switch b.val {
			case 0:
				return Const(0)
			case 1:
				return a
			}
		}
	case OpAnd:
		if b.kind == KindConst && b.val == 0 {
			return Const(0)
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
	return rawBin(op, a, b)
}

func foldConst(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		if b >= 0 && b < 64 {
			return a << uint(b), true
		}
	case OpShr:
		if b >= 0 && b < 64 {
			return int64(uint64(a) >> uint(b)), true
		}
	}
	return 0, false
}

// normalizeAdd flattens nested additions and produces the canonical
// "base + constant" form with the constant folded and placed last.
func normalizeAdd(a, b *Expr) *Expr {
	var terms []*Expr
	var c int64
	var collect func(e *Expr)
	collect = func(e *Expr) {
		switch {
		case e.kind == KindConst:
			c += e.val
		case e.kind == KindBinOp && e.op == OpAdd:
			collect(e.x)
			collect(e.y)
		default:
			terms = append(terms, e)
		}
	}
	collect(a)
	collect(b)
	if len(terms) == 0 {
		return Const(c)
	}
	// Canonical order for symbolic terms: sort by key so x+y == y+x.
	sort.Slice(terms, func(i, j int) bool { return terms[i].key < terms[j].key })
	out := terms[0]
	for _, t := range terms[1:] {
		out = rawBin(OpAdd, out, t)
	}
	if c != 0 {
		out = rawBin(OpAdd, out, Const(c))
	}
	return out
}

func rawBin(op Op, a, b *Expr) *Expr {
	d := a.depth
	if b.depth > d {
		d = b.depth
	}
	if d >= MaxDepth {
		return truncated(rawBinNoLimit(op, a, b))
	}
	return rawBinNoLimit(op, a, b)
}

func rawBinNoLimit(op Op, a, b *Expr) *Expr {
	d := a.depth
	if b.depth > d {
		d = b.depth
	}
	e := &Expr{kind: KindBinOp, op: op, x: a, y: b, depth: d + 1}
	e.key = "(" + a.key + op.String() + b.key + ")"
	return e
}

// Add is shorthand for Bin(OpAdd, a, Const(off)).
func Add(a *Expr, off int64) *Expr { return Bin(OpAdd, a, Const(off)) }

// Kind returns the expression kind.
func (e *Expr) Kind() Kind { return e.kind }

// ConstVal returns the constant value; ok is false for non-constants.
func (e *Expr) ConstVal() (int64, bool) {
	if e.kind == KindConst {
		return e.val, true
	}
	return 0, false
}

// SymName returns the symbol name; ok is false for non-symbols.
func (e *Expr) SymName() (string, bool) {
	if e.kind == KindSym {
		return e.name, true
	}
	return "", false
}

// DerefAddr returns the address operand of a deref; ok is false otherwise.
func (e *Expr) DerefAddr() (*Expr, bool) {
	if e.kind == KindDeref {
		return e.x, true
	}
	return nil, false
}

// BinOperands returns the operator and operands of a binary op.
func (e *Expr) BinOperands() (Op, *Expr, *Expr, bool) {
	if e.kind == KindBinOp {
		return e.op, e.x, e.y, true
	}
	return 0, nil, nil, false
}

// Key returns the canonical string form; expressions are equal iff their
// keys are equal.
func (e *Expr) Key() string { return e.key }

// String implements fmt.Stringer.
func (e *Expr) String() string {
	if e == nil {
		return "<nil>"
	}
	return e.key
}

// Depth returns the nesting depth of the expression tree.
func (e *Expr) Depth() int { return e.depth }

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == o
	}
	return e.key == o.key
}

// IsDeref reports whether the expression is a memory access.
func (e *Expr) IsDeref() bool { return e.kind == KindDeref }

// ContainsSym reports whether the symbol name occurs anywhere in e.
func (e *Expr) ContainsSym(name string) bool {
	return e.AnySym(func(s string) bool { return s == name })
}

// ContainsTaint reports whether any taint symbol occurs anywhere in e.
func (e *Expr) ContainsTaint() bool { return e.AnySym(IsTaintName) }

// AnySym reports whether pred holds for the name of some symbol in e.
// It walks e without allocating, stopping at the first match, so it is
// the cheap form of a predicate over Syms.
func (e *Expr) AnySym(pred func(name string) bool) bool {
	switch e.kind {
	case KindSym:
		return pred(e.name)
	case KindDeref:
		return e.x.AnySym(pred)
	case KindBinOp:
		return e.x.AnySym(pred) || e.y.AnySym(pred)
	}
	return false
}

// TaintSyms returns the names of all taint symbols occurring in e.
func (e *Expr) TaintSyms() []string {
	var out []string
	for _, s := range e.Syms() {
		if IsTaintName(s) {
			out = append(out, s)
		}
	}
	return out
}

// Syms returns the names of all symbols in e, in first-occurrence order,
// without duplicates.
func (e *Expr) Syms() []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(x *Expr)
	walk = func(x *Expr) {
		switch x.kind {
		case KindSym:
			if !seen[x.name] {
				seen[x.name] = true
				out = append(out, x.name)
			}
		case KindDeref:
			walk(x.x)
		case KindBinOp:
			walk(x.x)
			walk(x.y)
		}
	}
	walk(e)
	return out
}

// DerefKeys returns the canonical keys of every deref subexpression of e
// (including e itself), without duplicates. The def-use graph uses these
// to connect a value expression to the definitions it reads.
func (e *Expr) DerefKeys() []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(x *Expr)
	walk = func(x *Expr) {
		switch x.kind {
		case KindDeref:
			if !seen[x.key] {
				seen[x.key] = true
				out = append(out, x.key)
			}
			walk(x.x)
		case KindBinOp:
			walk(x.x)
			walk(x.y)
		}
	}
	walk(e)
	return out
}

// Subst returns e with every occurrence of old replaced by new. The result
// is re-normalized.
func (e *Expr) Subst(old, new *Expr) *Expr {
	if e == nil || old == nil || new == nil {
		return e
	}
	if e.key == old.key {
		return new
	}
	switch e.kind {
	case KindConst, KindSym:
		return e
	case KindDeref:
		nx := e.x.Subst(old, new)
		if nx == e.x {
			return e
		}
		return Deref(nx)
	case KindBinOp:
		nx := e.x.Subst(old, new)
		ny := e.y.Subst(old, new)
		if nx == e.x && ny == e.y {
			return e
		}
		return Bin(e.op, nx, ny)
	}
	return e
}

// MapSyms rewrites every symbol in e through f; f returns nil to keep a
// symbol unchanged. Used for heap-identity rehashing at callsites.
func (e *Expr) MapSyms(f func(name string) *Expr) *Expr {
	switch e.kind {
	case KindConst:
		return e
	case KindSym:
		if r := f(e.name); r != nil {
			return r
		}
		return e
	case KindDeref:
		nx := e.x.MapSyms(f)
		if nx == e.x {
			return e
		}
		return Deref(nx)
	case KindBinOp:
		nx := e.x.MapSyms(f)
		ny := e.y.MapSyms(f)
		if nx == e.x && ny == e.y {
			return e
		}
		return Bin(e.op, nx, ny)
	}
	return e
}

// BasePlusOffset decomposes e into a symbolic base and a constant offset
// (the GetBasePtr operation of Algorithm 1). For plain symbols or derefs the
// offset is zero. It fails for pure constants and non-additive forms.
func (e *Expr) BasePlusOffset() (base *Expr, off int64, ok bool) {
	switch e.kind {
	case KindSym, KindDeref:
		return e, 0, true
	case KindBinOp:
		if e.op != OpAdd {
			return nil, 0, false
		}
		// Normalized adds keep the constant on the right.
		if c, isC := e.y.ConstVal(); isC {
			if b, o, ok2 := e.x.BasePlusOffset(); ok2 {
				return b, o + c, true
			}
			return e.x, c, true
		}
		return e, 0, true
	}
	return nil, 0, false
}

// BasePointers returns every pointer-like subexpression that acts as a base
// of a memory access inside e (the GetPtrInVar operation of Algorithm 1).
// For deref(deref(arg0+0x58)+0xEC) it returns [arg0, deref(arg0+0x58)].
func (e *Expr) BasePointers() []*Expr {
	seen := make(map[string]bool)
	var out []*Expr
	var walk func(x *Expr)
	walk = func(x *Expr) {
		switch x.kind {
		case KindDeref:
			if b, _, ok := x.x.BasePlusOffset(); ok && b.kind != KindConst {
				if !seen[b.key] {
					seen[b.key] = true
					out = append(out, b)
				}
			}
			walk(x.x)
		case KindBinOp:
			walk(x.x)
			walk(x.y)
		}
	}
	walk(e)
	return out
}

// RootPointer returns the innermost symbolic base of a (possibly nested)
// memory expression, e.g. arg0 for deref(deref(arg0+0x58)+0xEC). Returns
// nil when there is no symbolic root.
func (e *Expr) RootPointer() *Expr {
	switch e.kind {
	case KindSym:
		return e
	case KindDeref:
		if b, _, ok := e.x.BasePlusOffset(); ok {
			return b.RootPointer()
		}
		return nil
	case KindBinOp:
		if b, _, ok := e.BasePlusOffset(); ok && !b.Equal(e) {
			return b.RootPointer()
		}
		// Fall back to the left operand's root.
		return e.x.RootPointer()
	}
	return nil
}

// Format helpers ------------------------------------------------------------

// Fmt formats an expression for diagnostics, e.g. in vulnerability reports.
func Fmt(e *Expr) string {
	if e == nil {
		return "<nil>"
	}
	return e.String()
}

var _ fmt.Stringer = (*Expr)(nil)
