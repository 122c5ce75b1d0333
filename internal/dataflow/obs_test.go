package dataflow

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
)

// spanSet renders the (Name, fn-attr) multiset of a trace — the part of
// the span tree that must be identical across worker counts. Span IDs,
// ordering, and timings legitimately vary with scheduling.
func spanSet(tr *obs.Tracer) []string {
	var out []string
	for _, s := range tr.Spans() {
		key := s.Name
		if fn := s.Attr("fn"); fn != nil {
			key += fmt.Sprintf(" fn=%v", fn)
		}
		if n := s.Attr("functions"); n != nil {
			key += fmt.Sprintf(" functions=%v", n)
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// The span tree is part of the determinism contract: a sequential and a
// heavily parallel run of the same binary must record the same span
// multiset (one ssa-function and one ddg-function span per function,
// the same stage spans, the same component sizes).
func TestSpanSetDeterministicAcrossWorkers(t *testing.T) {
	spec, ok := corpus.SpecByProduct("DIR-645")
	if !ok {
		t.Fatal("DIR-645 spec missing")
	}
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, workers := range []int{1, 8} {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		if _, err := Analyze(prog, Options{Parallelism: workers, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		got := spanSet(tr)
		if len(got) == 0 {
			t.Fatalf("workers=%d: no spans recorded", workers)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=8 recorded %d spans, workers=1 recorded %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("span sets diverge at %d:\n got %q\nwant %q", i, got[i], want[i])
			}
		}
	}
}

// The shared unit scheduler's bookkeeping must not depend on the worker
// count: every function is executed and recorded exactly once per phase
// (each phase's time histogram counts the functions), every metric
// matches across worker counts, and both phases' decile progress events
// are identical at workers 1 and 8, with a cold summary store and with a
// warm one.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	spec, _ := corpus.SpecByProduct("DIR-645")
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// run analyzes bin once and returns its metrics (counter values and
	// histogram counts) and the DetKeys of its progress events. A warm
	// store replays every unit, so no function executes.
	run := func(workers int, store *sumstore.Store, warm bool) (map[string]uint64, []string) {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		j := events.NewJournal(0)
		res, err := Analyze(prog, Options{Parallelism: workers, Metrics: reg,
			SummaryStore: store, Events: j.Emitter("det")})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, s := range reg.Snapshot() {
			switch s.Type {
			case obs.TypeCounter:
				out[s.Name] = uint64(s.Value)
			case obs.TypeHistogram:
				out[s.Name] = s.Count
			}
		}
		executed := uint64(res.FunctionsAnalyzed)
		if warm {
			executed = 0
		}
		for _, h := range []string{"dtaint_fn_ssa_seconds", "dtaint_fn_ddg_seconds"} {
			if out[h] != executed {
				t.Fatalf("workers=%d: %s has %d observations, want %d (%d functions analyzed)",
					workers, h, out[h], executed, res.FunctionsAnalyzed)
			}
		}
		evs, dropped := j.Since(0)
		if dropped != 0 {
			t.Fatalf("journal dropped %d events", dropped)
		}
		var progress []events.ScanEvent
		for _, e := range evs {
			if e.Type == events.TypeProgress {
				progress = append(progress, e)
			}
		}
		return out, events.DetKeys(progress)
	}
	newStore := func() *sumstore.Store {
		s, err := sumstore.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	seq, seqProgress := run(1, nil, false)
	par, parProgress := run(8, nil, false)
	if len(seq) == 0 {
		t.Fatal("no metrics collected")
	}
	for name, v := range seq {
		if par[name] != v {
			t.Fatalf("metric %s: workers=1 %d, workers=8 %d", name, v, par[name])
		}
	}
	stages := map[string]bool{}
	for _, k := range seqProgress {
		for _, stage := range []string{"function-analysis", "interproc-dataflow"} {
			if strings.Contains(k, "|stage="+stage+"|") {
				stages[stage] = true
			}
		}
	}
	if len(stages) != 2 {
		t.Fatalf("progress events cover stages %v, want function-analysis and interproc-dataflow", stages)
	}
	if !reflect.DeepEqual(seqProgress, parProgress) {
		t.Fatalf("progress events differ without a store:\nworkers=1 %q\nworkers=8 %q", seqProgress, parProgress)
	}

	// Each worker count gets its own store, scanned cold, then warm.
	seqStore, parStore := newStore(), newStore()
	for _, warm := range []bool{false, true} {
		_, seqKeys := run(1, seqStore, warm)
		_, parKeys := run(8, parStore, warm)
		if !reflect.DeepEqual(seqKeys, seqProgress) || !reflect.DeepEqual(parKeys, seqProgress) {
			t.Fatalf("warm=%v store: progress events differ from the store-less run:\nworkers=1 %q\nworkers=8 %q\nno store  %q",
				warm, seqKeys, parKeys, seqProgress)
		}
	}
}

// Analysis results must be identical with and without observability
// attached — the handles are pure observers.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	spec, _ := corpus.SpecByProduct("DIR-645")
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) string {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	plain := run(Options{Parallelism: 2})
	observed := run(Options{Parallelism: 2, Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()})
	if plain != observed {
		t.Fatalf("observability changed results:\n--- plain ---\n%s--- observed ---\n%s", plain, observed)
	}
}
