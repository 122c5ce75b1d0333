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
// the callsite to that function.
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

// canonicalize spells an expression with its root symbol rewritten to
// the placeholder. The rewrite re-normalizes, so it is built, through
// tab; only its spelling is kept.
func canonicalize(tab *expr.Table, e *expr.Expr, rootName string) string {
	return tab.MapSyms(e, func(name string) *expr.Expr {
		if name == rootName {
			return tab.Sym(rootPlaceholder)
		}
		return nil
	}).Key()
}

// BuildLayouts groups a function's field observations into layouts, one
// per root pointer. Roots that are arguments, heap identities, return
// values, or the stack pointer all qualify — the paper builds stack
// layouts when a stack pointer is passed to a callee.
func BuildLayouts(sum *symexec.Summary) []*Layout {
	tab := new(expr.Table)
	byRoot := make(map[string]*Layout)
	for _, fo := range sum.Fields {
		root := fo.Base.RootPointer()
		if root == nil {
			continue
		}
		rootName, ok := root.SymName()
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
		baseKey := canonicalize(tab, fo.Base, rootName)
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
// offset under the same base have incompatible types.
func Similarity(a, b *Layout) (sigma float64, ok bool) {
	if a == nil || b == nil || len(a.Fields) == 0 || len(b.Fields) == 0 {
		return 0, false
	}
	// Rule 1: base(A) ⊆ base(B) or base(B) ⊆ base(A).
	if !subset(a.baseSet(), b.baseSet()) && !subset(b.baseSet(), a.baseSet()) {
		return 0, false
	}
	for base, fa := range a.Fields {
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

// ResolveIndirect resolves every indirect callsite across the analyzed
// functions. For a callsite whose target was loaded from deref(base+off),
// it builds the callsite's structure layout, finds the most similar
// layout that registers a function pointer at the aligned (base, off)
// field, and binds the call to that function.
func ResolveIndirect(sums map[string]*symexec.Summary) []Resolution {
	// Gather all layouts across functions.
	type owned struct {
		layout *Layout
	}
	var all []owned
	layoutsByFunc := make(map[string][]*Layout, len(sums))
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := BuildLayouts(sums[name])
		layoutsByFunc[name] = ls
		for _, l := range ls {
			all = append(all, owned{layout: l})
		}
	}

	tab := new(expr.Table)
	var out []Resolution
	for _, name := range names {
		sum := sums[name]
		for _, call := range sum.Dispatches {
			addr, ok := call.FnPtr.DerefAddr()
			if !ok {
				continue
			}
			base, off, ok := addr.BasePlusOffset()
			if !ok {
				continue
			}
			root := base.RootPointer()
			if root == nil {
				continue
			}
			rootName, ok := root.SymName()
			if !ok {
				continue
			}
			// The callsite's own structure layout.
			var siteLayout *Layout
			for _, l := range layoutsByFunc[name] {
				if l.Root == rootName {
					siteLayout = l
					break
				}
			}
			if siteLayout == nil {
				continue
			}
			baseKey := canonicalize(tab, base, rootName)

			best := Resolution{Caller: name, Site: call.Addr, Score: -1}
			for _, o := range all {
				pm := o.layout.FnPtrs[baseKey]
				if pm == nil {
					continue
				}
				target, has := pm[off]
				if !has {
					continue
				}
				score, ok := Similarity(siteLayout, o.layout)
				if !ok {
					continue
				}
				if score > best.Score ||
					(score == best.Score && target < best.Callee) {
					best.Score = score
					best.Callee = target
				}
			}
			if best.Callee != "" {
				out = append(out, best)
			}
		}
	}
	return out
}
