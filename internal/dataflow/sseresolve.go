package dataflow

import (
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
// spelling is root-abstracted through the analysis's expression table,
// and a callsite binds to a registration when their abstracted paths are
// one table node. Only the functions that register or dispatch are read:
// one structsim.Index lays them out, and this resolver builds alias
// classes for them alone. The index serves twice more: layout similarity
// breaks ties between registrations at one path, and a callsite with no
// path match falls back to the index's own layout resolution
// (structsim.Index.Resolve), the resolver -ablate sse runs alone.

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

// resolveIndirectSSE resolves every indirect callsite across the
// analyzed functions from SSE equivalence classes, falling back to
// layout similarity for callsites with no path match. At most one
// resolution is emitted per dispatch; output order follows sorted
// function names and dispatch order, so results are deterministic. The
// expressions it builds go through tab. When no summary holds an
// indirect dispatch it builds no classes or layouts and returns nothing.
func resolveIndirectSSE(sums map[string]*symexec.Summary, tab *expr.Table) ([]structsim.Resolution, ResolveStats) {
	var stats ResolveStats
	dispatches := false
	for _, sum := range sums {
		if len(sum.Dispatches) > 0 {
			dispatches = true
			break
		}
	}
	if !dispatches {
		return nil, stats
	}
	idx := structsim.NewIndex(sums)
	classes := make(map[string]*sse.Interner, len(idx.Funcs()))
	for _, name := range idx.Funcs() {
		sum := sums[name]
		classes[name] = alias.Classes(tab, sum.DefPairs, sum.Types)
	}

	// Registration index: every spelling of every function-pointer
	// store, keyed by its root-abstracted table node. Two spellings
	// collide exactly when they abstract to the same path.
	regs := make(map[*expr.Expr][]regCandidate)
	regSeen := make(map[*expr.Expr]map[string]bool)
	for _, name := range idx.Funcs() {
		li := classes[name]
		for _, fo := range sums[name].Fields {
			if fo.FnTarget == "" {
				continue
			}
			pb, ok := li.Intern(fo.Base)
			if !ok {
				continue
			}
			root, _ := structsim.RootSym(fo.Base)
			for _, form := range li.PathExprs(pb, resolveVariantDepth, resolveVariantMax) {
				k, ok := structsim.AbstractRoot(tab, tab.Add(form, fo.Off))
				if !ok {
					continue
				}
				id := fo.FnTarget + "\x00" + name
				if regSeen[k] == nil {
					regSeen[k] = make(map[string]bool)
				}
				if regSeen[k][id] {
					continue
				}
				regSeen[k][id] = true
				regs[k] = append(regs[k], regCandidate{target: fo.FnTarget, fn: name, root: root})
			}
		}
	}

	var out []structsim.Resolution
	for _, name := range idx.Funcs() {
		li := classes[name]
		for _, call := range sums[name].Dispatches {
			addr, ok := call.FnPtr.DerefAddr()
			if !ok {
				continue
			}
			best := structsim.Resolution{Caller: name, Site: call.Addr, Score: -1}
			if pa, ok := li.Intern(addr); ok {
				siteRoot, _ := structsim.RootSym(addr)
				siteLayout := idx.Layout(name, siteRoot)
				for _, form := range li.PathExprs(pa, resolveVariantDepth, resolveVariantMax) {
					ab, ok := structsim.AbstractRoot(tab, form)
					if !ok {
						continue
					}
					for _, c := range regs[ab] {
						score := 0.0
						if sim, ok := structsim.Similarity(siteLayout, idx.Layout(c.fn, c.root)); ok {
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
			if r, ok := idx.Resolve(name, call); ok {
				stats.ByStructSim++
				out = append(out, r)
			}
		}
	}
	return out, stats
}
