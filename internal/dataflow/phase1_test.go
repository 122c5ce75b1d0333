package dataflow

import (
	"reflect"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/image"
	"dtaint/internal/structsim"
	"dtaint/internal/symexec"
)

// TestPhase1KeepsResolutionInputs: phase 1 records only what
// indirect-call resolution reads (symexec.Options.ForResolution), so
// over a screening seed and DS-2CD6233F, the study binary with an
// indirect callsite, its summaries must resolve, lay out and score
// exactly as full summaries built through the same table do, and must
// hold no constraints and no ranges.
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
		resolved["sse"] += len(gotSSE)
		resolved["structsim"] += len(gotSim)
	}
	// Each resolver must bind something, or the comparison is vacuous.
	if resolved["sse"] == 0 || resolved["structsim"] == 0 {
		t.Fatalf("resolutions %v: the inputs exercise no indirect dispatch", resolved)
	}
}
