package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dtaint/internal/obs"
)

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	workers  int
	trace    bool
	traceOut string
	size     sizing
}

// setupReps is how many times a run generates its inputs and warms up;
// setup_s is the median, so one slow set-up does not move it.
const setupReps = 3

// stat is a metric's distribution over a run's samples.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// layerValue is one per-layer number of the traced pass.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Exact bool    `json:"exact,omitempty"`
	// Moves is the end-to-end metric and workload the layer should move.
	Moves string `json:"moves"`
}

// workloadRecord is one workload's part of a dtaint-bench/v2 record.
type workloadRecord struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	Inputs string `json:"inputs"`
	Unit   string `json:"unit"`
	Seed   uint64 `json:"seed"`
	// Workers is the load the harness generates (scan goroutines, fleet
	// and diff pool); DDGWorkers the bottom-up scheduler's workers per
	// binary.
	Workers    int     `json:"workers"`
	DDGWorkers int     `json:"ddgWorkers"`
	SetupReps  int     `json:"setupReps"`
	Warmups    int     `json:"warmups"`
	Passes     int     `json:"passes"`
	Seconds    float64 `json:"seconds"`
	// UnitSamples counts the time-to-verdict samples of the timed passes;
	// the unit percentiles are taken per pass and summarized over passes.
	UnitSamples int     `json:"unitSamples"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedRatio float64 `json:"failedRatio"`
	// EndToEnd holds the metrics; its times are scaled by host speed
	// (hostspeed.go). Raw holds the same times unscaled, and HostCalMs the
	// calibration kernel's times the timed passes were scaled by.
	EndToEnd  map[string]stat       `json:"endToEnd"`
	Raw       map[string]stat       `json:"raw"`
	HostCalMs stat                  `json:"hostCalMs"`
	PerLayer  map[string]layerValue `json:"perLayer,omitempty"`
	// LayerSelfMs is the traced pass's self time of every layer,
	// including those (fleet, diff, harness) only some workloads run.
	LayerSelfMs map[string]float64 `json:"layerSelfMs,omitempty"`
	// Extra holds workload-specific numbers outside the metric tables,
	// such as diff's untimed prior scan.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// runWorkload sets a workload up setupReps times (input generation plus
// warm-up passes), runs timed passes with tracing off until cfg.seconds
// have passed, and with cfg.trace one traced pass for the per-layer
// numbers. Host speed is measured right before and right after every
// set-up and timed pass, and their mean scales its times. Every pass,
// warm-up included, is checked against ground truth.
func runWorkload(cfg config) (*workloadRecord, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rec := &workloadRecord{
		Name: w.name, Why: w.why, Inputs: w.inputs, Unit: w.unit, Seed: cfg.seed,
		Workers: cfg.workers, DDGWorkers: 1, SetupReps: setupReps, Warmups: w.warmups,
		Seconds: cfg.seconds,
	}
	count := func(r passResult) {
		rec.Attempted += r.attempted
		rec.Failed += r.failed
	}

	// hostNow measures host speed after a collection, so that no
	// collection overlaps the kernel.
	speed := newHostSpeed(cfg.workers)
	hostNow := func() time.Duration {
		runtime.GC()
		return speed.measure()
	}
	var inst instance
	var setups []float64
	var setupCals []time.Duration
	for i := 0; i < setupReps; i++ {
		inst = nil // let the previous set-up's inputs be collected first
		before := hostNow()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed, cfg.size, cfg.workers); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for j := 0; j < w.warmups; j++ {
			if err := inst.prepare(); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
			}
			count(inst.run(passObs{}))
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCals = append(setupCals, (before+hostNow())/2)
	}
	if _, ok := inst.(*studyInstance); ok {
		rec.DDGWorkers = cfg.workers
	}

	var wall, cpu, alloc, gcs, pause, mallocs, p50s, p99s []float64
	var cals []time.Duration
	start := time.Now()
	for len(wall) == 0 || time.Since(start).Seconds() < cfg.seconds {
		if err := inst.prepare(); err != nil {
			return nil, fmt.Errorf("%s pass: %w", w.name, err)
		}
		before := hostNow()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, t0 := cpuTime(), time.Now()
		r := inst.run(passObs{})
		d, c := time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		cals = append(cals, (before+hostNow())/2)
		count(r)
		wall = append(wall, d.Seconds())
		cpu = append(cpu, c.Seconds())
		alloc = append(alloc, mb(m1.TotalAlloc-m0.TotalAlloc))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		pause = append(pause, ms(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		units := make([]float64, len(r.units))
		for i, u := range r.units {
			units[i] = ms(u)
		}
		sort.Float64s(units)
		p50s = append(p50s, quantile(units, 0.50))
		p99s = append(p99s, quantile(units, 0.99))
		rec.UnitSamples += len(units)
	}
	rec.Passes = len(wall)
	// Peak RSS is read before the traced pass, whose spans and probe are
	// harness memory.
	rss := peakRSSMB()

	if cfg.trace {
		facts, err := tracedPass(cfg, inst, rec, count)
		if err != nil {
			return nil, err
		}
		facts["runtime.gc_cycles"] = median(gcs)
		facts["runtime.gc_pause_ms"] = median(pause)
		facts["runtime.mallocs"] = median(mallocs)
		facts["trace_overhead_ratio"] = facts["traced_pass_ms"] / 1000 / median(wall)
		rec.PerLayer = make(map[string]layerValue, len(perLayer))
		for _, m := range perLayer {
			rec.PerLayer[m.Name] = layerValue{Unit: m.Unit, Value: facts[m.Name], Exact: m.Exact, Moves: m.Moves}
			delete(facts, m.Name)
		}
		rec.Extra = facts
	}

	rec.Raw = map[string]stat{
		"setup_s":     summarize("s", setups),
		"wall_s":      summarize("s", wall),
		"cpu_s":       summarize("s", cpu),
		"unit_p50_ms": summarize("ms", p50s),
		"unit_p99_ms": summarize("ms", p99s),
	}
	calMs := make([]float64, len(cals))
	for i, c := range cals {
		calMs[i] = ms(c)
	}
	rec.HostCalMs = summarize("ms", calMs)
	rec.EndToEnd = map[string]stat{
		"setup_s":     summarize("s", scaleAll(setups, setupCals)),
		"wall_s":      summarize("s", scaleAll(wall, cals)),
		"cpu_s":       summarize("s", scaleAll(cpu, cals)),
		"alloc_mb":    summarize("MB", alloc),
		"peak_rss_mb": {Unit: "MB", Median: rss, Q1: rss, Q3: rss, N: 1},
		"unit_p50_ms": summarize("ms", scaleAll(p50s, cals)),
		"unit_p99_ms": summarize("ms", scaleAll(p99s, cals)),
	}
	if rec.Attempted > 0 {
		rec.FailedRatio = float64(rec.Failed) / float64(rec.Attempted)
	}
	return rec, nil
}

// tracedPass runs one pass with a tracer and a metrics registry attached
// and derives the per-layer numbers: layer self times, the program's own
// counters, the probe, and for study the bottom-up pass rerun at one
// worker. It returns every number keyed by metric name, plus the traced
// pass's wall as traced_pass_ms.
func tracedPass(cfg config, inst instance, rec *workloadRecord, count func(passResult)) (map[string]float64, error) {
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", rec.Name, err)
	}
	runtime.GC()
	tracer, reg := obs.NewTracer(), obs.NewRegistry()
	root := tracer.StartSpan("pass")
	t0 := time.Now()
	r := inst.run(passObs{tracer: tracer, metrics: reg, parent: root})
	tracedWall := time.Since(t0)
	root.End()
	count(r)
	spans := tracer.Spans()

	facts := map[string]float64{"traced_pass_ms": ms(tracedWall)}
	for k, v := range r.facts {
		facts[k] = v
	}
	rec.LayerSelfMs = make(map[string]float64)
	for layer, d := range layerSelfTimes(spans) {
		rec.LayerSelfMs[layer] = ms(d)
	}
	for _, layer := range pipelineLayers {
		facts[layer+"_ms"] = rec.LayerSelfMs[layer]
	}
	spanFacts(spans, facts)
	registryFacts(reg, facts)
	if err := probe(inst.probeInputs(), facts); err != nil {
		return nil, fmt.Errorf("%s probe: %w", rec.Name, err)
	}

	if s, ok := inst.(*studyInstance); ok {
		seq := *s
		seq.opts.Parallelism = 1
		t := obs.NewTracer()
		root := t.StartSpan("pass")
		count(seq.run(passObs{tracer: t, parent: root}))
		root.End()
		if par := spanTotal(spans, "interproc-dataflow"); par > 0 {
			facts["dataflow.bottomup_speedup"] = float64(spanTotal(t.Spans(), "interproc-dataflow")) / float64(par)
		}
	}

	if cfg.traceOut != "" {
		if err := writeTrace(tracer, cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return facts, nil
}

func spanTotal(spans []obs.SpanRecord, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Duration
		}
	}
	return d
}

func writeTrace(t *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// quantile is the p-quantile of sorted values, linearly interpolated
// (the definition Python's statistics.quantiles uses with method
// "inclusive").
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func summarize(unit string, v []float64) stat {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stat{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
