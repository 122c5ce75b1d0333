// Package expr implements the symbolic expression language DTaint uses to
// describe variables at the binary level.
//
// Following Section III-B of the paper, a variable is described by the
// address expression of the memory that holds it: absolute addresses are
// constants, indirect accesses are "base + offset" forms, and deref marks a
// memory access. For example the instruction `LDR R1, [R5, 0x4C]` is
// described as `R1 = deref(R5 + 0x4C)`.
//
// Expressions are immutable and built only through a Table, which
// normalizes each result (constant folding, canonical base+offset
// ordering) and hash-conses it: each distinct node is built, and its key
// spelled, once per table, and later constructions of it return the same
// pointer. One analysis owns one table, so inside it two expressions are
// structurally equal exactly when they are the same pointer. Key() spells
// the canonical form for output, derived names and comparisons across
// tables.
package expr

import (
	"fmt"
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

	depth int32
	hash  uint32 // structural hash; picks a Table shard
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

func newConst(v int64) *Expr {
	return &Expr{kind: KindConst, val: v, depth: 1, hash: constHash(v), key: strconv.FormatInt(v, 10)}
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
		smallConsts[i] = *newConst(int64(i) + minSmallConst)
	}
}

func newSym(name string, h uint32) *Expr {
	return &Expr{kind: KindSym, name: name, depth: 1, hash: h, key: name}
}

// argNames spells arg0..arg9, the argument symbols every calling
// convention uses, so naming one allocates nothing.
const argNames = "arg0arg1arg2arg3arg4arg5arg6arg7arg8arg9"

// ArgName returns the canonical name of the i-th formal argument symbol.
func ArgName(i int) string {
	if i >= 0 && i < 10 {
		return argNames[4*i : 4*i+4]
	}
	return "arg" + strconv.Itoa(i)
}

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

func newDeref(addr *Expr) *Expr {
	return &Expr{kind: KindDeref, x: addr, depth: addr.depth + 1, hash: derefHash(addr), key: "deref(" + addr.key + ")"}
}

// truncated replaces an over-deep expression with an opaque symbol whose
// name is derived from the original key, so equal expressions still collapse
// to equal symbols.
func (t *Table) truncated(e *Expr) *Expr {
	return t.Sym("opaque_" + shortHash(e.key))
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

func newBin(op Op, a, b *Expr) *Expr {
	return &Expr{kind: KindBinOp, op: op, x: a, y: b, depth: max(a.depth, b.depth) + 1,
		hash: binHash(op, a, b), key: "(" + a.key + op.String() + b.key + ")"}
}

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
// keys are equal. Inside one Table the node pointer is the identity and
// Key is only its spelling: for output and the wire format, for names
// derived from an expression, and for comparing nodes of two tables.
func (e *Expr) Key() string { return e.key }

// String implements fmt.Stringer.
func (e *Expr) String() string {
	if e == nil {
		return "<nil>"
	}
	return e.key
}

// Depth returns the nesting depth of the expression tree.
func (e *Expr) Depth() int { return int(e.depth) }

// Equal reports structural equality: equal keys. Nodes of one table are
// equal only when they are one pointer, so that case skips the string
// comparison; nodes of two tables compare by spelling.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil {
		return false
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
