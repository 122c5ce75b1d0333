package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/obs"
)

// tinyRun profiles one workload at test size: one set-up, one timed pass
// (seconds 0) and the traced pass.
func tinyRun(t *testing.T, name string, workers int, traceOut string) *workloadRecord {
	t.Helper()
	rec, err := runWorkload(config{workload: name, seed: 7, workers: workers, trace: true,
		traceOut: traceOut, size: tinySize})
	if err != nil {
		t.Fatalf("%s at %d workers: %v", name, workers, err)
	}
	return rec
}

// TestExactCountersRepeat runs every workload at one and two workers,
// twice each: every counter the metric table marks exact must be
// identical across the four runs, no unit may fail its ground truth, and
// the record must carry exactly the declared metrics.
func TestExactCountersRepeat(t *testing.T) {
	maxWorkers := 2
	if runtime.NumCPU() < 2 {
		maxWorkers = 1
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first *workloadRecord
			for _, workers := range []int{1, maxWorkers, 1, maxWorkers} {
				rec := tinyRun(t, w.name, workers, "")
				if rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("workers %d: %d of %d units failed", workers, rec.Failed, rec.Attempted)
				}
				if got, want := keys(rec.EndToEnd), names(endToEnd); !equal(got, want) {
					t.Fatalf("end-to-end metrics %v, declared %v", got, want)
				}
				if got, want := keys(rec.PerLayer), names(perLayer); !equal(got, want) {
					t.Fatalf("per-layer metrics %v, declared %v", got, want)
				}
				if first == nil {
					first = rec
					continue
				}
				for _, m := range perLayer {
					if m.Exact && rec.PerLayer[m.Name].Value != first.PerLayer[m.Name].Value {
						t.Errorf("workers %d: exact counter %s = %v, first run %v",
							workers, m.Name, rec.PerLayer[m.Name].Value, first.PerLayer[m.Name].Value)
					}
				}
			}
		})
	}
}

// TestSpecMatchesBenchmarkJSON keeps the metric tables, the workloads and
// the summary line in step with BENCHMARK.json.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}

	rec := tinyRun(t, "screen", 1, "")
	for _, traced := range []bool{false, true} {
		table := endToEnd
		if traced {
			table = perLayer
		}
		line := summaryLine(rec, traced)
		if got, want := keys(line.Metrics), names(table); !equal(got, want) {
			t.Errorf("summary line (traced %v) has %v, want %v", traced, got, want)
		}
		for _, m := range table {
			if line.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s unit %q, declared %q", m.Name, line.Metrics[m.Name].Unit, m.Unit)
			}
		}
	}
}

// TestPerturbedExpectationCountsAsFailed breaks one expectation per
// workload: the pass still completes and the mismatch is counted.
func TestPerturbedExpectationCountsAsFailed(t *testing.T) {
	perturb := map[string]func(instance){
		"study": func(i instance) {
			u := i.(*studyInstance).units[0]
			u.planted = append(u.planted, corpus.Planted{SinkFunc: "nowhere", Sink: "system", Source: "getenv"})
		},
		"screen": func(i instance) {
			u := i.(*screenInstance).units[0]
			u.hasVuln = !u.hasVuln
		},
		"replay": func(i instance) {
			r := i.(*replayInstance)
			for sha := range r.refs {
				r.refs[sha] = "wrong"
				break
			}
		},
		"diff": func(i instance) {
			d := i.(*diffInstance)
			tr := d.truth[d.vp.AddedPath]
			tr.newF++
			d.truth[d.vp.AddedPath] = tr
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(7, tinySize, 1)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < w.warmups; pass++ {
				if err := inst.prepare(); err != nil {
					t.Fatal(err)
				}
				if r := inst.run(passObs{}); r.failed != 0 {
					t.Fatalf("unperturbed pass: %d of %d units failed", r.failed, r.attempted)
				}
			}
			perturb[w.name](inst)
			if err := inst.prepare(); err != nil {
				t.Fatal(err)
			}
			if r := inst.run(passObs{}); r.failed == 0 || r.attempted <= r.failed {
				t.Fatalf("perturbed pass: %d of %d units failed, want some but not all", r.failed, r.attempted)
			}
		})
	}
}

// TestWorkloadTraffic pins, at the benchmark's own size and seed 1, the
// store traffic the workload reasons claim: replay reads every function's
// summary and component entry from the store and runs no symbolic
// execution; diff re-analyzes the mutated and added binaries, which read
// their stable functions from the store and execute and write the rest.
func TestWorkloadTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size replay and diff inputs")
	}
	t.Run("replay", func(t *testing.T) {
		f, _ := fullSizeFacts(t, "replay")
		if f["dataflow.symexec_calls"] != 0 || f["sumstore.misses"] != 0 ||
			f["sumstore.hits"] != 2*f["dataflow.functions"] || f["sumstore.hits"] == 0 {
			t.Errorf("replay: %v symexec calls, %v store hits and %v misses over %v functions; want 0, 2 per function, 0",
				f["dataflow.symexec_calls"], f["sumstore.hits"], f["sumstore.misses"], f["dataflow.functions"])
		}
	})
	t.Run("diff", func(t *testing.T) {
		f, inst := fullSizeFacts(t, "diff")
		vp := inst.(*diffInstance).vp
		if want := float64(len(vp.MutatedPaths) + 1); f["diff.reanalyzed"] != want {
			t.Errorf("diff re-analyzed %v binaries, want %v (mutated and added)", f["diff.reanalyzed"], want)
		}
		if f["sumstore.hits"] == 0 || f["sumstore.misses"] == 0 || f["dataflow.symexec_calls"] != f["sumstore.misses"] {
			t.Errorf("diff: %v store hits, %v misses, %v symexec calls; want hits, and one symexec call per miss",
				f["sumstore.hits"], f["sumstore.misses"], f["dataflow.symexec_calls"])
		}
	})
}

// fullSizeFacts sets a workload up at the benchmark's size with seed 1,
// runs its warm-ups and one pass with a metrics registry, and returns the
// pass's counters.
func fullSizeFacts(t *testing.T, name string) (map[string]float64, instance) {
	t.Helper()
	w, _ := workloadByName(name)
	inst, err := w.setup(1, fullSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(o passObs) passResult {
		if err := inst.prepare(); err != nil {
			t.Fatal(err)
		}
		r := inst.run(o)
		if r.failed != 0 {
			t.Fatalf("%d of %d units failed", r.failed, r.attempted)
		}
		return r
	}
	for i := 0; i < w.warmups; i++ {
		pass(passObs{})
	}
	reg := obs.NewRegistry()
	r := pass(passObs{metrics: reg})
	registryFacts(reg, r.facts)
	return r.facts, inst
}

// TestTraceOutWritesChromeTrace checks -trace-out writes Chrome trace
// JSON holding the harness's layer spans and the program's stage spans,
// and that study's pipeline layers account for the traced pass's wall.
func TestTraceOutWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	rec := tinyRun(t, "study", 1, path)
	var pipeline float64
	for layer, v := range rec.LayerSelfMs {
		if layer != "harness" {
			pipeline += v
		}
	}
	if wall := rec.Extra["traced_pass_ms"]; pipeline < 0.9*wall || pipeline > wall {
		t.Errorf("pipeline self times sum to %.3f ms of a %.3f ms traced pass", pipeline, wall)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  int64
			Tid      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Tid < 1 {
			t.Fatalf("bad event %+v", ev)
		}
		seen[ev.Name] = true
	}
	for _, name := range []string{"pass", "firmware.unpack", "image.parse", "cfg.build", "dataflow.analyze",
		"function-analysis", "structsim", "interproc-dataflow", "count-sinks"} {
		if !seen[name] {
			t.Errorf("trace lacks span %q", name)
		}
	}
}

// TestLayerSelfTimes pins the self-time rule: children of another layer
// are subtracted, same-layer children (here parallel ssa-function spans)
// fold into their layer.
func TestLayerSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	span := func(id, parent uint64, name string, from, to int) obs.SpanRecord {
		return obs.SpanRecord{ID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(from) * time.Millisecond), Duration: time.Duration(to-from) * time.Millisecond}
	}
	spans := []obs.SpanRecord{
		span(1, 0, "pass", 0, 100),
		span(2, 1, "cfg.build", 10, 20),
		span(3, 1, "dataflow.analyze", 20, 90),
		span(4, 3, "function-analysis", 20, 50),
		span(5, 4, "ssa-function", 20, 45),
		span(6, 4, "ssa-function", 25, 50),
		span(7, 3, "interproc-dataflow", 50, 88),
		span(8, 7, "scc-component", 50, 88),
	}
	got := layerSelfTimes(spans)
	want := map[string]time.Duration{
		"harness": 20 * time.Millisecond, "cfg.build": 10 * time.Millisecond,
		"dataflow.other": 2 * time.Millisecond, "dataflow.phase1": 30 * time.Millisecond,
		"dataflow.bottomup": 38 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s self time %v, want %v", l, got[l], d)
		}
	}
}

// TestCompareGates checks which differences -compare fails on.
func TestCompareGates(t *testing.T) {
	mk := func(wall, wallIQR, states, symexecMs float64, failed int) *record {
		w := &workloadRecord{Name: "study", Attempted: 100, Failed: failed, FailedRatio: float64(failed) / 100,
			EndToEnd: map[string]stat{}, PerLayer: map[string]layerValue{}}
		for _, m := range endToEnd {
			w.EndToEnd[m.Name] = stat{Unit: m.Unit, Median: 1, Q1: 1, Q3: 1, N: 10}
		}
		w.EndToEnd["wall_s"] = stat{Unit: "s", Median: wall, Q1: wall - wallIQR/2, Q3: wall + wallIQR/2, N: 10}
		for _, m := range perLayer {
			w.PerLayer[m.Name] = layerValue{Unit: m.Unit, Value: 5, Exact: m.Exact}
		}
		w.PerLayer["symexec.states"] = layerValue{Unit: "count", Value: states, Exact: true}
		w.PerLayer["symexec.ms"] = layerValue{Unit: "ms", Value: symexecMs}
		return &record{Schema: recordSchema, Workloads: []*workloadRecord{w}}
	}
	base := mk(1.0, 0.02, 100, 10, 0)
	otherSeed := mk(1.0, 0.02, 100, 10, 0)
	otherSeed.Workloads[0].Seed = 2
	for _, c := range []struct {
		name string
		head *record
		ok   bool
	}{
		{"identical", mk(1.0, 0.02, 100, 10, 0), true},
		{"wall within bound", mk(1.15, 0.02, 100, 10, 0), true},
		{"wall beyond bound", mk(1.3, 0.02, 100, 10, 0), false},
		{"wall better", mk(0.5, 0.02, 100, 10, 0), true},
		{"exact counter shrinks", mk(1.0, 0.02, 90, 10, 0), true},
		{"exact counter grows", mk(1.0, 0.02, 101, 10, 0), false},
		{"layer time grows", mk(1.0, 0.02, 100, 30, 0), true},
		{"failed ratio rises", mk(1.0, 0.02, 100, 10, 1), false},
		{"workload missing", &record{Schema: recordSchema}, false},
		{"other seed", otherSeed, false},
	} {
		var out bytes.Buffer
		if got := compareRecords(&out, base, c.head); got != c.ok {
			t.Errorf("%s: compare ok = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
	}
	// A base whose own spread exceeds the bound cannot call a regression.
	var out bytes.Buffer
	if !compareRecords(&out, mk(1.0, 0.3, 100, 10, 0), mk(1.3, 0.02, 100, 10, 0)) ||
		!strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("wide base spread: want an unresolved, passing row\n%s", out.String())
	}
}

// TestScaleAll pins the host-speed scaling: a time measured while the
// kernel ran twice as slow as calRef reads half as long, and one measured
// at calRef reads as measured.
func TestScaleAll(t *testing.T) {
	got := scaleAll([]float64{4, 3}, []time.Duration{2 * calRef, calRef})
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("scaleAll = %v, want [2 3]", got)
	}
	if d := newHostSpeed(1).measure(); d <= 0 {
		t.Fatalf("kernel measured %v", d)
	}
}

// TestAnalysisOptionsAreTheScannerDefaults pins the options the
// benchmark analyzes with to dtaint.New's: the loop-once heuristic on.
func TestAnalysisOptionsAreTheScannerDefaults(t *testing.T) {
	if fp := dataflow.OptionsFingerprint(analysisOptions(), ""); !strings.Contains(fp, "loopOnce=true") {
		t.Fatalf("benchmark options %s do not enable loop-once", fp)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(table []metric) []string {
	out := make([]string, len(table))
	for i, m := range table {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
