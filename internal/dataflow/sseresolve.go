package dataflow

import (
	"sort"

	"dtaint/internal/alias"
	"dtaint/internal/expr"
	"dtaint/internal/sse"
	"dtaint/internal/structsim"
	"dtaint/internal/symexec"
)

// SSE-driven indirect-call resolution (phase 2).
//
// A function-pointer registration is a store of a known code address
// through some access path; a callsite is a load through some access
// path followed by an indirect branch. structsim aligns the two by
// data-structure layout similarity, which fails whenever registration
// and dispatch spell the path through *different* bases — the ops-struct
// idiom registers under the ops argument while the dispatcher loads
// through obj->ops. Here both sides are expanded through their
// function's SSE alias classes into every equivalent spelling, each
// spelling is root-abstracted and interned into one shared table, and a
// callsite binds to a registration when their interned paths are
// pointer-identical. Layout similarity is demoted to a tie-breaker
// between matching registrations; callsites with no SSE match fall back
// to plain structsim resolution.

// resolveRootSym is the root placeholder both sides are rewritten to
// before interning, mirroring structsim's layout canonicalization.
const resolveRootSym = "ROOT"

// Expansion bounds for spelling enumeration, matching the alias
// rewriter's: depth covers nested handoffs (obj -> mid -> ops), the cap
// keeps one pathological class from flooding the table.
const (
	resolveVariantDepth = 3
	resolveVariantMax   = 16
)

// ResolveStats reports how phase 2 bound indirect callsites.
type ResolveStats struct {
	// BySSE counts callsites bound through SSE path identity.
	BySSE int
	// ByStructSim counts callsites the class matching could not bind
	// that layout similarity alone resolved.
	ByStructSim int
}

// regCandidate is one function-pointer registration reachable at an
// abstracted path: target is the registered function, fn/root identify
// the registering layout for the similarity tie-break.
type regCandidate struct {
	target string
	fn     string
	root   string
}

// regKey addresses one abstracted access path in the shared interner.
// The node field is the interned pointer itself: two spellings collide
// exactly when they canonicalize to the same path.
type regKey struct {
	node *sse.Node
	off  int64
}

// abstractRoot rewrites e's root symbol to the shared placeholder so
// paths from different functions align.
func abstractRoot(e *expr.Expr) (*expr.Expr, bool) {
	root := e.RootPointer()
	if root == nil {
		return nil, false
	}
	name, ok := root.SymName()
	if !ok {
		return nil, false
	}
	return e.MapSyms(func(n string) *expr.Expr {
		if n == name {
			return expr.Sym(resolveRootSym)
		}
		return nil
	}), true
}

// resolveIndirectSSE resolves every indirect callsite across the
// analyzed functions from SSE equivalence classes, falling back to
// structsim for callsites with no path match. At most one resolution is
// emitted per call record; output order follows sorted function names
// and call order, so results are deterministic.
func resolveIndirectSSE(sums map[string]*symexec.Summary) ([]structsim.Resolution, ResolveStats) {
	var stats ResolveStats
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)

	// Per-function class engines and layouts.
	classes := make(map[string]*sse.Interner, len(names))
	layoutsByFunc := make(map[string][]*structsim.Layout, len(names))
	for _, name := range names {
		sum := sums[name]
		classes[name] = alias.Classes(sum.DefPairs, sum.Types)
		layoutsByFunc[name] = structsim.BuildLayouts(sum)
	}
	layoutOf := func(fn, root string) *structsim.Layout {
		for _, l := range layoutsByFunc[fn] {
			if l.Root == root {
				return l
			}
		}
		return nil
	}

	// Registration index: every spelling of every function-pointer
	// store, root-abstracted and interned into the shared table.
	shared := sse.NewInterner()
	regs := make(map[regKey][]regCandidate)
	regSeen := make(map[regKey]map[string]bool)
	for _, name := range names {
		sum := sums[name]
		li := classes[name]
		for _, fo := range sum.Fields {
			if fo.FnTarget == "" {
				continue
			}
			pb, ok := li.Intern(fo.Base)
			if !ok {
				continue
			}
			rootName := ""
			if r := fo.Base.RootPointer(); r != nil {
				rootName, _ = r.SymName()
			}
			for _, form := range li.PathExprs(pb, resolveVariantDepth, resolveVariantMax) {
				addr := expr.Add(form, fo.Off)
				ab, ok := abstractRoot(addr)
				if !ok {
					continue
				}
				gp, ok := shared.Intern(ab)
				if !ok {
					continue
				}
				k := regKey{node: gp.Node, off: gp.Off}
				id := fo.FnTarget + "\x00" + name
				if regSeen[k] == nil {
					regSeen[k] = make(map[string]bool)
				}
				if regSeen[k][id] {
					continue
				}
				regSeen[k][id] = true
				regs[k] = append(regs[k], regCandidate{target: fo.FnTarget, fn: name, root: rootName})
			}
		}
	}

	// Fallback: plain layout-similarity resolution, indexed by callsite.
	// It rebuilds every layout, so it runs only once SSE leaves some
	// callsite unbound, and then at most once.
	type callsiteKey struct {
		caller string
		site   uint32
	}
	var fallback map[callsiteKey]structsim.Resolution
	fallbackFor := func(k callsiteKey) (structsim.Resolution, bool) {
		if fallback == nil {
			fallback = make(map[callsiteKey]structsim.Resolution)
			for _, r := range structsim.ResolveIndirect(sums) {
				rk := callsiteKey{caller: r.Caller, site: r.Site}
				if _, dup := fallback[rk]; !dup {
					fallback[rk] = r
				}
			}
		}
		r, ok := fallback[k]
		return r, ok
	}

	var out []structsim.Resolution
	for _, name := range names {
		sum := sums[name]
		li := classes[name]
		for _, call := range sum.Calls {
			if call.FnPtr == nil {
				continue
			}
			addr, ok := call.FnPtr.DerefAddr()
			if !ok {
				continue
			}
			best := structsim.Resolution{Caller: name, Site: call.Addr, Score: -1}
			if pa, ok := li.Intern(addr); ok {
				siteRoot := ""
				if r := addr.RootPointer(); r != nil {
					siteRoot, _ = r.SymName()
				}
				siteLayout := layoutOf(name, siteRoot)
				for _, form := range li.PathExprs(pa, resolveVariantDepth, resolveVariantMax) {
					ab, ok := abstractRoot(form)
					if !ok {
						continue
					}
					gp, ok := shared.Intern(ab)
					if !ok {
						continue
					}
					for _, c := range regs[regKey{node: gp.Node, off: gp.Off}] {
						score := 0.0
						if sim, ok := structsim.Similarity(siteLayout, layoutOf(c.fn, c.root)); ok {
							score = sim
						}
						if score > best.Score ||
							(score == best.Score && (best.Callee == "" || c.target < best.Callee)) {
							best.Score = score
							best.Callee = c.target
						}
					}
				}
			}
			if best.Callee != "" {
				stats.BySSE++
				out = append(out, best)
				continue
			}
			if fb, ok := fallbackFor(callsiteKey{caller: name, site: call.Addr}); ok {
				stats.ByStructSim++
				out = append(out, fb)
			}
		}
	}
	return out, stats
}
