// Package structsim implements the data-structure layout similarity of
// Section III-D, which DTaint uses to connect the data flow across
// indirect calls.
//
// A structure is represented as a multi-layer collection of fields
// S = (S1, ..., Sn), each Si holding the (offset, type) fields observed
// under one base address, all sharing a root pointer. Two structures A
// and B are comparable when base(A) ⊆ base(B) or base(B) ⊆ base(A) and
// fields at the same offset under the same base have compatible types;
// their similarity is
//
//	σ(A,B) = Σ |Ai ∩ Bj| / |Ai ∪ Bj|   over aligned base pairs (i,j).
//
// For every indirect callsite (the call target loaded from a structure
// field), the resolver picks the structure with the highest σ among those
// that register a function pointer at the corresponding field, and binds
// the callsite to that function. An Index lays out only the functions
// that register or dispatch, the only ones this rule reads.
package structsim

import (
	"sort"

	"dtaint/internal/expr"
	"dtaint/internal/symexec"
)

// Layout is one structure: fields grouped by canonical base address,
// sharing one root pointer. Base keys are canonicalized by rewriting the
// root symbol to "ROOT", so layouts from different functions align.
type Layout struct {
	Func string // owning function
	Root string // original root symbol name in its function
	// Fields: canonical base key -> offset -> field type.
	Fields map[string]map[int64]expr.Type
	// FnPtrs: canonical base key -> offset -> registered function name.
	FnPtrs map[string]map[int64]string
}

const rootPlaceholder = "ROOT"

// NumFields returns the total number of observed fields.
func (l *Layout) NumFields() int {
	n := 0
	for _, m := range l.Fields {
		n += len(m)
	}
	return n
}

// baseSet returns the canonical base keys.
func (l *Layout) baseSet() []string {
	out := make([]string, 0, len(l.Fields))
	for k := range l.Fields {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RootSym names e's root pointer symbol; ok is false when e has none.
func RootSym(e *expr.Expr) (string, bool) {
	root := e.RootPointer()
	if root == nil {
		return "", false
	}
	return root.SymName()
}

// AbstractRoot rewrites e's root symbol to the placeholder "ROOT",
// building through tab, so paths from different functions align. ok is
// false when e has no root symbol.
func AbstractRoot(tab *expr.Table, e *expr.Expr) (*expr.Expr, bool) {
	name, ok := RootSym(e)
	if !ok {
		return nil, false
	}
	return tab.MapSyms(e, func(n string) *expr.Expr {
		if n == name {
			return tab.Sym(rootPlaceholder)
		}
		return nil
	}), true
}

// BuildLayouts groups a function's field observations into layouts, one
// per root pointer. Roots that are arguments, heap identities, return
// values, or the stack pointer all qualify — the paper builds stack
// layouts when a stack pointer is passed to a callee.
func BuildLayouts(sum *symexec.Summary) []*Layout {
	tab := new(expr.Table)
	byRoot := make(map[string]*Layout)
	for _, fo := range sum.Fields {
		rootName, ok := RootSym(fo.Base)
		if !ok {
			continue
		}
		l := byRoot[rootName]
		if l == nil {
			l = &Layout{
				Func:   sum.Func,
				Root:   rootName,
				Fields: make(map[string]map[int64]expr.Type),
				FnPtrs: make(map[string]map[int64]string),
			}
			byRoot[rootName] = l
		}
		ab, _ := AbstractRoot(tab, fo.Base)
		baseKey := ab.Key()
		fm := l.Fields[baseKey]
		if fm == nil {
			fm = make(map[int64]expr.Type)
			l.Fields[baseKey] = fm
		}
		fm[fo.Off] = fm[fo.Off].Join(fo.Ty)
		if fo.FnTarget != "" {
			pm := l.FnPtrs[baseKey]
			if pm == nil {
				pm = make(map[int64]string)
				l.FnPtrs[baseKey] = pm
			}
			pm[fo.Off] = fo.FnTarget
		}
	}
	out := make([]*Layout, 0, len(byRoot))
	roots := make([]string, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// Similarity computes σ(A, B). ok is false when the comparability rules
// fail: neither base set contains the other, or fields at the same
// offset under the same base have incompatible types. The per-base
// fractions are summed in sorted base order, so σ is the same float on
// every call.
func Similarity(a, b *Layout) (sigma float64, ok bool) {
	if a == nil || b == nil || len(a.Fields) == 0 || len(b.Fields) == 0 {
		return 0, false
	}
	// Rule 1: base(A) ⊆ base(B) or base(B) ⊆ base(A).
	as, bs := a.baseSet(), b.baseSet()
	if !subset(as, bs) && !subset(bs, as) {
		return 0, false
	}
	for _, base := range as {
		fa := a.Fields[base]
		fb, shared := b.Fields[base]
		if !shared {
			continue
		}
		// Rule 2: same offset at same base must have compatible types.
		inter := 0
		union := len(fa)
		for off, tb := range fb {
			ta, has := fa[off]
			if !has {
				union++
				continue
			}
			if !ta.Compatible(tb) {
				return 0, false
			}
			inter++
		}
		if union > 0 {
			sigma += float64(inter) / float64(union)
		}
	}
	return sigma, true
}

func subset(a, b []string) bool {
	set := make(map[string]bool, len(b))
	for _, k := range b {
		set[k] = true
	}
	for _, k := range a {
		if !set[k] {
			return false
		}
	}
	return true
}

// Resolution binds one indirect callsite to a resolved callee.
type Resolution struct {
	Caller string
	Site   uint32
	Callee string
	Score  float64
}

// Index holds, for one analysis, the layouts of the only functions
// indirect-call resolution reads: those that register a function pointer
// (a field observation with a FnTarget) and those that dispatch through
// one. It is built once and read by every resolver.
type Index struct {
	funcs   []string             // indexed function names, sorted
	layouts map[string][]*Layout // by function, sorted by root
	regs    []*Layout            // layouts registering a function pointer, in funcs then root order
	tab     *expr.Table          // builds the dispatch bases' canonical keys
}

// NewIndex lays out the functions of sums that register or dispatch.
func NewIndex(sums map[string]*symexec.Summary) *Index {
	x := &Index{layouts: make(map[string][]*Layout), tab: new(expr.Table)}
	for name, sum := range sums {
		if len(sum.Dispatches) > 0 || registers(sum) {
			x.funcs = append(x.funcs, name)
		}
	}
	sort.Strings(x.funcs)
	for _, name := range x.funcs {
		ls := BuildLayouts(sums[name])
		x.layouts[name] = ls
		for _, l := range ls {
			if len(l.FnPtrs) > 0 {
				x.regs = append(x.regs, l)
			}
		}
	}
	return x
}

// registers reports whether sum stores a known code address into a field.
func registers(sum *symexec.Summary) bool {
	for _, fo := range sum.Fields {
		if fo.FnTarget != "" {
			return true
		}
	}
	return false
}

// Funcs returns the indexed function names in sorted order.
func (x *Index) Funcs() []string { return x.funcs }

// Layout returns fn's layout rooted at root, or nil when fn is not
// indexed or observes no field under root.
func (x *Index) Layout(fn, root string) *Layout {
	for _, l := range x.layouts[fn] {
		if l.Root == root {
			return l
		}
	}
	return nil
}

// Resolve binds one dispatch of caller by layout similarity. For a call
// target loaded from deref(base+off), it takes the caller's layout at
// base's root, finds the most similar layout that registers a function
// pointer at the aligned (base, off) field, and binds the call to that
// function; equal scores go to the smaller name. ok is false when no
// registration aligns.
func (x *Index) Resolve(caller string, call symexec.Dispatch) (Resolution, bool) {
	addr, ok := call.FnPtr.DerefAddr()
	if !ok {
		return Resolution{}, false
	}
	base, off, ok := addr.BasePlusOffset()
	if !ok {
		return Resolution{}, false
	}
	rootName, ok := RootSym(base)
	if !ok {
		return Resolution{}, false
	}
	site := x.Layout(caller, rootName)
	if site == nil {
		return Resolution{}, false
	}
	ab, _ := AbstractRoot(x.tab, base)
	baseKey := ab.Key()
	best := Resolution{Caller: caller, Site: call.Addr, Score: -1}
	for _, l := range x.regs {
		target, has := l.FnPtrs[baseKey][off]
		if !has {
			continue
		}
		score, ok := Similarity(site, l)
		if !ok {
			continue
		}
		if score > best.Score || (score == best.Score && target < best.Callee) {
			best.Score = score
			best.Callee = target
		}
	}
	return best, best.Callee != ""
}

// ResolveIndirect resolves every indirect callsite across the analyzed
// functions by layout similarity alone (Index.Resolve), in sorted
// caller and dispatch order.
func ResolveIndirect(sums map[string]*symexec.Summary) []Resolution {
	x := NewIndex(sums)
	var out []Resolution
	for _, name := range x.funcs {
		for _, call := range sums[name].Dispatches {
			if r, ok := x.Resolve(name, call); ok {
				out = append(out, r)
			}
		}
	}
	return out
}
