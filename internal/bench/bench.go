// Package bench regenerates the paper's evaluation tables and figures
// from the synthetic corpus. It is shared by cmd/benchtab and the
// module's testing.B benchmarks, and prints each experiment side by side
// with the paper's reported values so the reproduction's shape can be
// checked at a glance.
//
// Absolute numbers are not expected to match the paper (the substrate is
// a synthetic mini-ISA corpus, not vendor ARM/MIPS firmware on the
// authors' testbed); the comparisons that must hold are structural: who
// finds what, which paths exist, and who is faster by what order of
// magnitude.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dtaint/internal/baseline"
	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/emul"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// StudyRun is the outcome of analyzing one study image.
type StudyRun struct {
	Spec    corpus.Spec
	Planted []corpus.Planted
	Stats   cfg.Stats
	SizeKB  int
	Result  *dataflow.Result
}

// RunStudy builds and analyzes all six study images at the given scale.
func RunStudy(scale float64) ([]StudyRun, error) {
	var runs []StudyRun
	for _, spec := range corpus.StudyImages() {
		run, err := runOne(spec, scale)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

func runOne(spec corpus.Spec, scale float64) (StudyRun, error) {
	bin, planted, err := corpus.BuildBinary(spec, scale)
	if err != nil {
		return StudyRun{}, err
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		return StudyRun{}, err
	}
	res, err := dataflow.Analyze(prog, dataflow.Options{Filter: corpus.ModuleFilter(spec)})
	if err != nil {
		return StudyRun{}, err
	}
	return StudyRun{
		Spec:    spec,
		Planted: planted,
		Stats:   prog.Stats(),
		SizeKB:  bin.Size() / 1024,
		Result:  res,
	}, nil
}

// Figure1 reproduces the Section II-A emulation study: the per-year
// firmware population and how much of it a FIRMADYNE-style emulator can
// boot. The paper reports 6,529 images with fewer than 670 emulable.
func Figure1(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 1: firmware that can be successfully emulated, by release year ==")
	e := emul.New()
	images := corpus.Population()
	stats := e.Study(images)
	fmt.Fprintln(w, "Year   Total  Emulable  Failed")
	total, ok := 0, 0
	for _, st := range stats {
		fmt.Fprintf(w, "%d  %6d  %8d  %6d\n", st.Year, st.Total, st.Success, st.Failed())
		total += st.Total
		ok += st.Success
	}
	fmt.Fprintf(w, "Total  %5d  %8d  %6d\n", total, ok, total-ok)
	fmt.Fprintf(w, "Paper:  6529       670    5859  (\"most firmware (90%%) ... cannot be dynamically analyzed\")\n\n")
	return nil
}

// Table1 prints the source/sink vocabulary (configuration, identical to
// the paper's Table I by construction).
func Table1(w io.Writer) error {
	fmt.Fprintln(w, "== Table I: sources and sinks ==")
	fmt.Fprintf(w, "Sensitive sinks: %v\n", taint.Sinks)
	fmt.Fprintf(w, "Input sources:   %v\n\n", taint.Sources)
	return nil
}

// paperTable2 holds the paper's Table II rows (size KB, functions,
// blocks, call-graph edges) keyed by product.
var paperTable2 = map[string][4]int{
	"DIR-645":     {156, 237, 3414, 1087},
	"DIR-890L":    {151, 358, 3913, 1418},
	"DGN1000":     {331, 732, 4943, 2457},
	"DGN2200":     {994, 796, 11183, 4497},
	"IPC_6201":    {4813, 6714, 99958, 32495},
	"DS-2CD6233F": {13199, 14035, 219945, 68974},
}

// Table2 reproduces the firmware summary. At scale 1.0 the counts land
// within a fraction of a percent of the paper's; at smaller scales the
// per-image proportions are preserved.
func Table2(w io.Writer, scale float64) error {
	fmt.Fprintln(w, "== Table II: firmware summary (measured vs paper) ==")
	fmt.Fprintf(w, "(corpus scale %.2f; paper values are full scale)\n", scale)
	fmt.Fprintln(w, "Product       Arch  Binary       SizeKB      Functions      Blocks          CallEdges")
	for _, spec := range corpus.StudyImages() {
		bin, _, err := corpus.BuildBinary(spec, scale)
		if err != nil {
			return err
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			return err
		}
		st := prog.Stats()
		p := paperTable2[spec.Product]
		fmt.Fprintf(w, "%-12s  %-4s  %-11s  %5d/%-5d  %6d/%-6d  %7d/%-7d  %6d/%-6d\n",
			spec.Product, spec.Arch, spec.BinaryName,
			bin.Size()/1024, p[0], st.Functions, p[1], st.Blocks, p[2], st.CallGraphEdges, p[3])
	}
	fmt.Fprintln(w)
	return nil
}

// paperTable3 holds the paper's Table III rows: analysis functions, sink
// count, execution minutes (scaled to seconds here), vulnerable paths,
// vulnerabilities.
var paperTable3 = map[string]struct {
	funcs, sinks int
	minutes      float64
	paths, vulns int
}{
	"DIR-645":     {237, 176, 1.18, 7, 4},
	"DIR-890L":    {358, 276, 1.48, 5, 2},
	"DGN1000":     {732, 958, 3.19, 19, 6},
	"DGN2200":     {796, 1264, 6.62, 14, 2},
	"IPC_6201":    {430, 447, 3.97, 10, 1},
	"DS-2CD6233F": {3233, 2052, 31.89, 30, 6},
}

// Table3 reproduces the detection-results summary.
func Table3(w io.Writer, runs []StudyRun) error {
	fmt.Fprintln(w, "== Table III: taint-style vulnerabilities found (measured vs paper) ==")
	fmt.Fprintln(w, "Firmware      AnalysisFuncs  Sinks        Time(s)/paper(min)  Paths     Vulns")
	for _, r := range runs {
		p := paperTable3[r.Spec.Product]
		paths := len(r.Result.VulnerablePaths())
		vulns := len(r.Result.Vulnerabilities())
		t := r.Result.SSATime + r.Result.DDGTime
		fmt.Fprintf(w, "%-12s  %5d/%-5d   %5d/%-5d  %8.2f/%-6.2f     %3d/%-3d  %3d/%-3d\n",
			r.Spec.Product,
			r.Result.FunctionsAnalyzed, p.funcs,
			r.Result.SinkCount, p.sinks,
			t.Seconds(), p.minutes,
			paths, p.paths,
			vulns, p.vulns)
	}
	fmt.Fprintln(w)
	return nil
}

// Table4 reproduces the previously-reported vulnerabilities: each known
// CVE/EDB analog with its sink, source, and (absent) security check.
func Table4(w io.Writer, runs []StudyRun) error {
	fmt.Fprintln(w, "== Table IV: previously reported vulnerabilities re-found ==")
	fmt.Fprintln(w, "Vulnerability   Sink     Source      SecurityCheck  Detected")
	for _, r := range runs {
		for _, p := range r.Planted {
			if !p.Known {
				continue
			}
			fmt.Fprintf(w, "%-14s  %-7s  %-10s  N              %v\n",
				p.ID, p.Sink, p.Source, detected(r, p))
		}
	}
	fmt.Fprintln(w)
	return nil
}

// Table5 reproduces the zero-day list with per-firmware counts.
func Table5(w io.Writer, runs []StudyRun) error {
	fmt.Fprintln(w, "== Table V: zero-day vulnerabilities discovered ==")
	fmt.Fprintln(w, "Firmware      Type               Status     Bugs  Detected")
	totalZero := 0
	for _, r := range runs {
		byClass := map[string][]corpus.Planted{}
		var order []string
		for _, p := range r.Planted {
			if p.Known {
				continue
			}
			key := p.Class.String() + "|" + p.Status
			if _, seen := byClass[key]; !seen {
				order = append(order, key)
			}
			byClass[key] = append(byClass[key], p)
		}
		for _, key := range order {
			ps := byClass[key]
			det := 0
			for _, p := range ps {
				if detected(r, p) {
					det++
				}
			}
			totalZero += len(ps)
			fmt.Fprintf(w, "%-12s  %-17s  %-9s  %4d  %d/%d\n",
				r.Spec.Product, ps[0].Class, ps[0].Status, len(ps), det, len(ps))
		}
	}
	fmt.Fprintf(w, "Total zero-days: %d (paper: 13)\n\n", totalZero)
	return nil
}

// detected reports whether the run found the planted vulnerability.
func detected(r StudyRun, p corpus.Planted) bool {
	for _, v := range r.Result.Vulnerabilities() {
		if v.SinkFunc == p.SinkFunc && v.Sink == p.Sink &&
			v.Source == p.Source && v.Class == p.Class {
			return true
		}
	}
	return false
}

// Table6 reproduces the resource-usage measurement over the largest
// study binary: CPU utilization and memory per pipeline phase.
func Table6(w io.Writer, scale float64) error {
	fmt.Fprintln(w, "== Table VI: CPU and memory usage of the pipeline phases ==")
	spec, _ := corpus.SpecByProduct("DGN2200")
	bin, _, err := corpus.BuildBinary(spec, scale)
	if err != nil {
		return err
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		return err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := dataflow.Analyze(prog, dataflow.Options{})
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)

	heap := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	cpuPct := 0.0
	if wall > 0 {
		cpuPct = 100 * float64(cpu) / float64(wall)
	}
	ssaShare := float64(res.SSATime) / float64(res.SSATime+res.DDGTime)
	fmt.Fprintln(w, "Phase                      CPU%    Memory(MB allocated)")
	fmt.Fprintf(w, "Static symbolic analysis   %4.0f    %8.1f\n", cpuPct, heap*ssaShare)
	fmt.Fprintf(w, "Data flow generation       %4.0f    %8.1f\n", cpuPct, heap*(1-ssaShare))
	fmt.Fprintf(w, "Paper: SSA 25%% CPU / 15.3 GB;  DDG 10%% CPU / 208.9 MB (128 GB host)\n\n")
	return nil
}

// Table7Workloads are the four programs of the paper's time-cost
// comparison.
var Table7Workloads = []string{"DIR-645", "DGN1000", "DGN2200", "openssl"}

// paperTable7 holds the paper's Table VII seconds:
// {angr SSA, angr DDG, dtaint SSA, dtaint DDG} keyed by binary label.
var paperTable7 = map[string][4]float64{
	"cgibin":    {134.49, 16463.32, 62.34, 10.48},
	"setup.cgi": {39.17, 539.68, 33.85, 1.205},
	"httpd":     {106.92, 22195.45, 60.92, 8.87},
	"openssl":   {102.94, 7345.56, 47.33, 3.09},
}

// Table7Row is one measured workload of the comparison. DTaintDDG is the
// parallel bottom-up run (Workers workers over the SCC DAG); DTaintDDGSeq
// is the same pass scheduled with one worker, so the per-binary DDG
// speedup of the parallel scheduler is visible next to the paper's
// baseline comparison.
type Table7Row struct {
	Binary                   string
	BaseSSA, BaseDDG         time.Duration
	DTaintSSA, DTaintDDG     time.Duration
	DTaintDDGSeq             time.Duration
	Workers                  int
	Components               int
	CriticalPath             int
	BaselineAnalyses, Capped int
}

// Table7Workers is the worker count of the parallel DDG measurement:
// GOMAXPROCS, but at least 4 so the SCC-DAG scheduler is exercised even
// on small hosts (components are goroutine-cheap to oversubscribe).
func Table7Workers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return w
}

// RunTable7 measures DTaint (sequential and parallel bottom-up) and the
// top-down baseline on the four workloads. maxAnalyses caps the
// baseline's exponential re-analysis (0 uses the package default of 200k;
// the cap is the phenomenon being measured, not an unfairness — uncapped,
// the baseline would not finish).
func RunTable7(scale float64, maxAnalyses int) ([]Table7Row, error) {
	var rows []Table7Row
	for _, product := range Table7Workloads {
		bin, label, err := table7Binary(product, scale)
		if err != nil {
			return nil, err
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			return nil, err
		}
		dt, err := dataflow.Analyze(prog, dataflow.Options{Parallelism: Table7Workers()})
		if err != nil {
			return nil, err
		}
		// Sequential bottom-up reference on a fresh CFG (same reason as the
		// baseline below: resolved indirect edges must not leak between
		// runs).
		progSeq, err := cfg.Build(bin)
		if err != nil {
			return nil, err
		}
		seq, err := dataflow.Analyze(progSeq, dataflow.Options{Parallelism: 1})
		if err != nil {
			return nil, err
		}
		// Fresh CFG so the resolved indirect edges do not leak into the
		// baseline run.
		prog2, err := cfg.Build(bin)
		if err != nil {
			return nil, err
		}
		base, err := baseline.Analyze(prog2, baseline.Options{MaxAnalyses: maxAnalyses})
		if err != nil {
			return nil, err
		}
		capped := 0
		if base.Capped {
			capped = 1
		}
		rows = append(rows, Table7Row{
			Binary:           label,
			BaseSSA:          base.SSATime,
			BaseDDG:          base.DDGTime,
			DTaintSSA:        dt.SSATime,
			DTaintDDG:        dt.DDGTime,
			DTaintDDGSeq:     seq.DDGTime,
			Workers:          dt.Parallel.Workers,
			Components:       dt.Parallel.Components,
			CriticalPath:     dt.Parallel.CriticalPath,
			BaselineAnalyses: base.Analyses,
			Capped:           capped,
		})
	}
	return rows, nil
}

func table7Binary(product string, scale float64) (*image.Binary, string, error) {
	if product == "openssl" {
		b, err := corpus.OpenSSL(scale)
		return b, "openssl", err
	}
	spec, ok := corpus.SpecByProduct(product)
	if !ok {
		return nil, "", fmt.Errorf("bench: unknown product %q", product)
	}
	b, _, err := corpus.BuildBinary(spec, scale)
	return b, spec.BinaryName, err
}

// Table7 prints the time-cost comparison, including the parallel
// SCC-DAG scheduler's DDG wall-clock next to the sequential (1-worker)
// schedule of the same pass. The measured rows are returned so callers
// can archive them (benchtab's BENCH_*.json record).
func Table7(w io.Writer, scale float64) ([]Table7Row, error) {
	fmt.Fprintln(w, "== Table VII: time cost, top-down baseline (angr-style) vs DTaint ==")
	fmt.Fprintf(w, "(corpus scale %.2f; seconds; paper full-scale values in parentheses; DDG(1w) is the sequential bottom-up schedule)\n", scale)
	rows, err := RunTable7(scale, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Program    Baseline-SSA        Baseline-DDG        DTaint-SSA          DTaint-DDG(1w)  DTaint-DDG          par     comps/crit  DDG-speedup")
	for _, r := range rows {
		p := paperTable7[r.Binary]
		speedup := 0.0
		if r.DTaintDDG > 0 {
			speedup = float64(r.BaseDDG) / float64(r.DTaintDDG)
		}
		par := 0.0
		if r.DTaintDDG > 0 {
			par = float64(r.DTaintDDGSeq) / float64(r.DTaintDDG)
		}
		note := ""
		if r.Capped == 1 {
			note = " (baseline capped)"
		}
		fmt.Fprintf(w, "%-9s  %8.3f (%8.2f)  %8.3f (%8.2f)  %8.3f (%8.2f)  %8.3f        %8.3f (%6.2f)  %4.1fx/%dw  %5d/%-5d  %6.1fx%s\n",
			r.Binary,
			r.BaseSSA.Seconds(), p[0],
			r.BaseDDG.Seconds(), p[1],
			r.DTaintSSA.Seconds(), p[2],
			r.DTaintDDGSeq.Seconds(),
			r.DTaintDDG.Seconds(), p[3],
			par, r.Workers,
			r.Components, r.CriticalPath,
			speedup, note)
	}
	fmt.Fprintf(w, "Paper DDG speedups: cgibin 1571x, setup.cgi 448x, httpd 2502x, openssl 2377x\n\n")
	return rows, nil
}

// Ablations measures the design-choice ablations DESIGN.md calls out:
// detection with pointer aliasing or structure similarity disabled, and
// the loop-once heuristic versus bounded unrolling. Each row reports the
// states the bottom-up pass explored, the deterministic measure of the
// work a configuration costs.
func Ablations(w io.Writer, scale float64) error {
	fmt.Fprintln(w, "== Ablations (Hikvision image: the alias- and similarity-dependent zero-days) ==")
	spec, _ := corpus.SpecByProduct("DS-2CD6233F")
	configs := []struct {
		name string
		opts dataflow.Options
	}{
		{"full pipeline", dataflow.Options{}},
		{"no pointer aliasing", dataflow.Options{DisableAlias: true}},
		{"no sse resolution", dataflow.Options{DisableSSE: true}},
		{"no struct similarity", dataflow.Options{DisableStructSim: true}},
		{"no value ranges", dataflow.Options{DisableVRange: true}},
		// The loop heuristic on the loop-heavy image.
		{"loop-once heuristic", dataflow.Options{Symexec: symexec.Options{LoopOnce: true}}},
		{"loops unrolled 3x", dataflow.Options{Symexec: symexec.Options{MaxLoopIters: 3}}},
	}
	for _, c := range configs {
		bin, planted, err := corpus.BuildBinary(spec, scale)
		if err != nil {
			return err
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			return err
		}
		c.opts.Filter = corpus.ModuleFilter(spec)
		t0 := time.Now()
		res, err := dataflow.Analyze(prog, c.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s  vulns %d/%d  paths %3d  states %6d  time %8.3fs\n",
			c.name, len(res.Vulnerabilities()), len(planted),
			len(res.VulnerablePaths()), statesExplored(res), time.Since(t0).Seconds())
	}
	fmt.Fprintln(w)
	return nil
}

// statesExplored sums the symbolic states the bottom-up pass explored
// over every final summary of res.
func statesExplored(res *dataflow.Result) int {
	n := 0
	for _, sum := range res.Summaries {
		n += sum.StatesExplored
	}
	return n
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	return processCPUTime()
}

// ScreeningStats holds one screening run's confusion counts and the
// derived precision/recall.
type ScreeningStats struct {
	TP, FP, FN, TN    int
	Precision, Recall float64
}

// Screening runs the detector over a randomized corpus of vulnerable and
// sanitized binaries with known ground truth and reports precision and
// recall — the quantitative form of the paper's "more vulnerabilities,
// fewer false alarms" claim. It runs three times — the full pipeline,
// with the interval value-range domain ablated, and with the SSE-based
// indirect-call resolver ablated — so each subsystem's precision/recall
// contribution is visible (the SSE ablation loses the indirect-dispatch
// shapes: recall drops while precision holds); the full-pipeline stats
// are returned for gating.
func Screening(w io.Writer, n int) (ScreeningStats, error) {
	fmt.Fprintf(w, "== Screening: precision/recall over %d randomized binaries ==\n", n)
	cases, err := corpus.ScreeningCorpus(n, 20180625)
	if err != nil {
		return ScreeningStats{}, err
	}
	full, err := screeningRun(cases, dataflow.Options{})
	if err != nil {
		return ScreeningStats{}, err
	}
	ablated, err := screeningRun(cases, dataflow.Options{DisableVRange: true})
	if err != nil {
		return ScreeningStats{}, err
	}
	noSSE, err := screeningRun(cases, dataflow.Options{DisableSSE: true})
	if err != nil {
		return ScreeningStats{}, err
	}
	for _, r := range []struct {
		name string
		s    ScreeningStats
	}{{"full pipeline", full}, {"ablated (-ablate vrange)", ablated}, {"ablated (-ablate sse)", noSSE}} {
		fmt.Fprintf(w, "%-26s tp %3d  fp %3d  fn %3d  tn %3d  precision %.3f  recall %.3f\n",
			r.name, r.s.TP, r.s.FP, r.s.FN, r.s.TN, r.s.Precision, r.s.Recall)
	}
	fmt.Fprintln(w)
	return full, nil
}

// screeningRun scores one detector configuration over the corpus. A case
// counts as found when an unsanitized vulnerability of its planted class
// is reported in the handler; under the vrange ablation the off-by-one
// and truncation classes cannot be produced, so any handler vulnerability
// counts — the ablation is scored on what it can still claim.
func screeningRun(cases []corpus.ScreeningCase, opts dataflow.Options) (ScreeningStats, error) {
	var st ScreeningStats
	for _, c := range cases {
		// Rebuild per run: structsim resolution adds call edges in place.
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			return st, err
		}
		res, err := dataflow.Analyze(prog, opts)
		if err != nil {
			return st, err
		}
		found := false
		for _, v := range res.Vulnerabilities() {
			if v.SinkFunc == "handler" && (v.Class == c.Class || opts.DisableVRange) {
				found = true
			}
		}
		switch {
		case c.HasVuln && found:
			st.TP++
		case c.HasVuln && !found:
			st.FN++
		case !c.HasVuln && found:
			st.FP++
		default:
			st.TN++
		}
	}
	st.Precision, st.Recall = 1.0, 1.0
	if st.TP+st.FP > 0 {
		st.Precision = float64(st.TP) / float64(st.TP+st.FP)
	}
	if st.TP+st.FN > 0 {
		st.Recall = float64(st.TP) / float64(st.TP+st.FN)
	}
	return st, nil
}
