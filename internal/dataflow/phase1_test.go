package dataflow

import (
	"reflect"
	"sort"
	"testing"

	"dtaint/internal/alias"
	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/expr"
	"dtaint/internal/firmware"
	"dtaint/internal/image"
	"dtaint/internal/sse"
	"dtaint/internal/structsim"
	"dtaint/internal/symexec"
)

// TestPhase1KeepsResolutionInputs: phase 1 records only what
// indirect-call resolution reads (symexec.Options.ForResolution), so
// over a screening seed, DS-2CD6233F (the study binary with an
// indirect callsite) and the fallback and tie-break programs, its
// summaries must resolve, lay out and score exactly as full summaries
// built through the same table do, and must hold no constraints and no
// ranges. Resolution reads only the functions that register or
// dispatch: the structsim index must hold exactly those, phase 1's
// selection must hold them all, and both resolvers must bind what they
// bind when every function is laid out.
func TestPhase1KeepsResolutionInputs(t *testing.T) {
	type unit struct {
		name   string
		bin    *image.Binary
		filter func(string) bool
	}
	spec, ok := corpus.SpecByProduct("DS-2CD6233F")
	if !ok {
		t.Fatal("no DS-2CD6233F spec")
	}
	bin, _, err := corpus.BuildBinary(spec, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	units := []unit{{spec.Product, bin, corpus.ModuleFilter(spec)}}
	cases, err := corpus.ScreeningCorpus(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		units = append(units, unit{c.Name, c.Binary, nil})
	}
	for _, p := range []struct{ name, src string }{
		{"fallback", structSimFallbackSrc}, {"tie-break", tieBreakFor("arm")},
	} {
		bin, err := asm.Assemble(p.name, p.src)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{p.name, bin, nil})
	}
	for _, arch := range []string{"arm", "mips"} {
		for _, shape := range arithPtrShapes {
			units = append(units, unit{arch + "/" + shape.name, arithPtrBinary(t, arch, shape.body), nil})
		}
	}
	resolved := map[string]int{}
	for _, u := range units {
		prog, err := cfg.Build(u.bin)
		if err != nil {
			t.Fatal(err)
		}
		names := filteredNames(prog, u.filter)
		opts := Options{Symexec: symexec.Options{LoopOnce: true}}.withVocab().withTable()
		tab := opts.Symexec.Table
		reduced, _ := runPhase1(prog, names, opts, nil, nil)
		full := make(map[string]*symexec.Summary, len(names))
		scratch := newTracker(opts, prog.Binary)
		for _, name := range names {
			scratch.BeginFunction(name)
			full[name] = symexec.Analyze(prog.ByName[name], prog.Binary, scratch, opts.Symexec)
		}

		for _, name := range names {
			r := reduced[name]
			if len(r.Constraints) != 0 || r.Ranges != nil {
				t.Fatalf("%s/%s: phase 1 recorded %d constraints and %d ranges", u.name, name, len(r.Constraints), len(r.Ranges))
			}
			// The rest of the summary is the full one.
			want := *full[name]
			want.Constraints, want.Ranges = nil, nil
			if got, exp := summaryLines(r), summaryLines(&want); !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s/%s: phase 1 summary\n%q\nwant\n%q", u.name, name, got, exp)
			}
			if got, exp := structsim.BuildLayouts(r), structsim.BuildLayouts(full[name]); !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s/%s: phase 1 layouts differ from the full summary's", u.name, name)
			}
		}

		gotSSE, gotStats := resolveIndirectSSE(reduced, tab)
		wantSSE, wantStats := resolveIndirectSSE(full, tab)
		if !reflect.DeepEqual(gotSSE, wantSSE) || gotStats != wantStats {
			t.Fatalf("%s: SSE resolution from phase 1 %v %+v, from full summaries %v %+v", u.name, gotSSE, gotStats, wantSSE, wantStats)
		}
		gotSim, wantSim := structsim.ResolveIndirect(reduced), structsim.ResolveIndirect(full)
		if !reflect.DeepEqual(gotSim, wantSim) {
			t.Fatalf("%s: layout resolution from phase 1 %v, from full summaries %v", u.name, gotSim, wantSim)
		}

		// The index lays out exactly the functions that register or
		// dispatch, and resolving from it gives what laying out every
		// function gives.
		var readers []string
		for _, name := range names {
			if len(reduced[name].Dispatches) > 0 || registersFnPtr(reduced[name]) {
				readers = append(readers, name)
			}
		}
		if got := structsim.NewIndex(reduced).Funcs(); !reflect.DeepEqual(got, readers) {
			t.Fatalf("%s: index holds %v, want the functions that register or dispatch %v", u.name, got, readers)
		}
		// Analyze runs phase 1 only on its selection, which must hold
		// every such function.
		selected := map[string]bool{}
		for _, name := range phase1Funcs(prog, names, opts) {
			selected[name] = true
		}
		for _, name := range readers {
			if !selected[name] {
				t.Fatalf("%s: %s registers or dispatches, but phase 1 does not select it", u.name, name)
			}
		}
		allSSE, allStats := allFunctionsResolveSSE(reduced, tab)
		if !reflect.DeepEqual(gotSSE, allSSE) || gotStats != allStats {
			t.Fatalf("%s: SSE resolution from the index %v %+v, from every function %v %+v", u.name, gotSSE, gotStats, allSSE, allStats)
		}
		if allSim := allFunctionsResolveIndirect(reduced); !reflect.DeepEqual(gotSim, allSim) {
			t.Fatalf("%s: layout resolution from the index %v, from every function %v", u.name, gotSim, allSim)
		}
		resolved["fallback"] += gotStats.ByStructSim
		resolved["sse"] += len(gotSSE)
		resolved["structsim"] += len(gotSim)
		resolved["indexed"] += len(readers)
		resolved["functions"] += len(names)
	}
	// Each resolver must bind something, or the comparison is vacuous.
	if resolved["sse"] == 0 || resolved["structsim"] == 0 || resolved["fallback"] == 0 {
		t.Fatalf("resolutions %v: the inputs exercise no indirect dispatch", resolved)
	}
	t.Logf("resolutions and index sizes: %v", resolved)
}

// TestBottomUpLayoutsMatchPhase1: diff pairing reads a function's
// layouts from its stored bottom-up summary and, when there is none,
// from a phase-1 summary of the function alone. The two must lay out
// alike: on every golden unit in every golden mode, on a screening
// seed and on the mutated binaries of a re-release pair, each
// function's structsim.BuildLayouts from Analyze's summary must equal
// the one from its phase-1 summary.
func TestBottomUpLayoutsMatchPhase1(t *testing.T) {
	laidOut, funcs := 0, 0
	check := func(unit string, prog *cfg.Program, opts Options) {
		t.Helper()
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
		opts = opts.withVocab().withTable()
		phase1, _ := runPhase1(prog, filteredNames(prog, opts.Filter), opts, nil, nil)
		for name, sum := range phase1 {
			want := structsim.BuildLayouts(sum)
			if got := structsim.BuildLayouts(res.Summaries[name]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: bottom-up layouts %+v, phase-1 layouts %+v", unit, name, got, want)
			}
			funcs++
			if len(want) > 0 {
				laidOut++
			}
		}
	}
	for _, m := range goldenModes {
		for _, u := range goldenUnits(t) {
			opts := m.opts
			opts.Filter = u.filter
			check(m.name+" "+u.name, u.prog, opts)
		}
	}
	opts := Options{Symexec: symexec.Options{LoopOnce: true}}
	cases, err := corpus.ScreeningCorpus(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			t.Fatal(err)
		}
		check(c.Name, prog, opts)
	}
	vp, err := corpus.BuildVersionPair(corpus.VersionPairAt(10))
	if err != nil {
		t.Fatal(err)
	}
	mutated, checked := map[string]bool{}, 0
	for _, p := range vp.MutatedPaths {
		mutated[p] = true
	}
	for _, img := range [][]byte{vp.Old, vp.New} {
		_, fs, err := firmware.Unpack(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs.Files {
			if !mutated[f.Path] {
				continue
			}
			bin, err := image.Parse(f.Data)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Build(bin)
			if err != nil {
				t.Fatal(err)
			}
			check(f.Path, prog, opts)
			checked++
		}
	}
	if checked != 2*len(vp.MutatedPaths) || laidOut == 0 {
		t.Fatalf("%d mutated binaries checked, %d functions with layouts: the comparison is vacuous", checked, laidOut)
	}
	t.Logf("%d of %d functions have layouts", laidOut, funcs)
}

// registersFnPtr reports whether sum stores a known code address.
func registersFnPtr(sum *symexec.Summary) bool {
	for _, fo := range sum.Fields {
		if fo.FnTarget != "" {
			return true
		}
	}
	return false
}

// allFunctionsResolveIndirect is layout-similarity resolution that lays
// out every function: the reference structsim.ResolveIndirect, which
// lays out only the functions that register or dispatch, must match.
func allFunctionsResolveIndirect(sums map[string]*symexec.Summary) []structsim.Resolution {
	var all []*structsim.Layout
	layoutsByFunc := make(map[string][]*structsim.Layout, len(sums))
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		layoutsByFunc[name] = structsim.BuildLayouts(sums[name])
		all = append(all, layoutsByFunc[name]...)
	}
	tab := new(expr.Table)
	var out []structsim.Resolution
	for _, name := range names {
		for _, call := range sums[name].Dispatches {
			addr, ok := call.FnPtr.DerefAddr()
			if !ok {
				continue
			}
			base, off, ok := addr.BasePlusOffset()
			if !ok {
				continue
			}
			rootName, ok := structsim.RootSym(base)
			if !ok {
				continue
			}
			var siteLayout *structsim.Layout
			for _, l := range layoutsByFunc[name] {
				if l.Root == rootName {
					siteLayout = l
					break
				}
			}
			if siteLayout == nil {
				continue
			}
			ab, _ := structsim.AbstractRoot(tab, base)
			best := structsim.Resolution{Caller: name, Site: call.Addr, Score: -1}
			for _, l := range all {
				target, has := l.FnPtrs[ab.Key()][off]
				if !has {
					continue
				}
				score, ok := structsim.Similarity(siteLayout, l)
				if !ok {
					continue
				}
				if score > best.Score || (score == best.Score && target < best.Callee) {
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

// allFunctionsResolveSSE is the SSE resolver over every function: alias
// classes and layouts for each, and a fallback, built once some
// callsite needs it, that takes allFunctionsResolveIndirect's first
// binding at the callsite. resolveIndirectSSE must match it.
func allFunctionsResolveSSE(sums map[string]*symexec.Summary, tab *expr.Table) ([]structsim.Resolution, ResolveStats) {
	var stats ResolveStats
	names := make([]string, 0, len(sums))
	dispatches := false
	for name, sum := range sums {
		names = append(names, name)
		dispatches = dispatches || len(sum.Dispatches) > 0
	}
	if !dispatches {
		return nil, stats
	}
	sort.Strings(names)
	classes := make(map[string]*sse.Interner, len(names))
	layoutsByFunc := make(map[string][]*structsim.Layout, len(names))
	for _, name := range names {
		sum := sums[name]
		classes[name] = alias.Classes(tab, sum.DefPairs, sum.Types)
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
	regs := make(map[*expr.Expr][]regCandidate)
	regSeen := make(map[*expr.Expr]map[string]bool)
	for _, name := range names {
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
	type callsiteKey struct {
		caller string
		site   uint32
	}
	var fallback map[callsiteKey]structsim.Resolution
	var out []structsim.Resolution
	for _, name := range names {
		li := classes[name]
		for _, call := range sums[name].Dispatches {
			addr, ok := call.FnPtr.DerefAddr()
			if !ok {
				continue
			}
			best := structsim.Resolution{Caller: name, Site: call.Addr, Score: -1}
			if pa, ok := li.Intern(addr); ok {
				siteRoot, _ := structsim.RootSym(addr)
				for _, form := range li.PathExprs(pa, resolveVariantDepth, resolveVariantMax) {
					ab, ok := structsim.AbstractRoot(tab, form)
					if !ok {
						continue
					}
					for _, c := range regs[ab] {
						score := 0.0
						if sim, ok := structsim.Similarity(layoutOf(name, siteRoot), layoutOf(c.fn, c.root)); ok {
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
			if fallback == nil {
				fallback = make(map[callsiteKey]structsim.Resolution)
				for _, r := range allFunctionsResolveIndirect(sums) {
					if k := (callsiteKey{r.Caller, r.Site}); fallback[k].Callee == "" {
						fallback[k] = r
					}
				}
			}
			if fb, ok := fallback[callsiteKey{name, call.Addr}]; ok {
				stats.ByStructSim++
				out = append(out, fb)
			}
		}
	}
	return out, stats
}
