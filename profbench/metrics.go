package main

// metric declares one reported number. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root declares the
// same names, units, directions and bounds, and TestSpecMatchesBenchmarkJSON
// keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before -compare calls it a regression.
	Bound float64
	// Exact marks a per-layer counter that depends only on the inputs and
	// the analysis options. The screen, replay and diff inputs depend on
	// the seed, so the counter repeats bit-for-bit across runs and worker
	// counts of one seed, not across seeds. -compare gates on it and
	// compares only records of the same seed.
	Exact bool
	// Moves names the end-to-end metric and workload a change to this
	// layer should move.
	Moves string
}

// endToEnd are the numbers a user of the scanner sees. Each is measured
// with tracing off and reported as the median over the timed passes;
// times are scaled by host speed (hostspeed.go). A bound has to hold both
// the spread of ten runs over ten seeds and the shift between two such
// sets. alloc_mb repeats exactly for one seed and spreads under 3% across
// seeds, so its bound is tight. The time bounds are not: even scaled, ten
// runs of one workload spread by up to 14% on the 2-vCPU VM the benchmark
// was written on (README.md has the measurements). They sit just below
// setup_s's so set-up keeps the largest bound. peak_rss_mb spreads by up
// to 14% on screen, whose 35 MB peak moves with GC timing.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "unit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "unit_p99_ms", Unit: "ms", Better: "lower", Bound: 0.24},
}

// perLayer are the single-layer numbers of the traced pass. Times are
// layer self times (ms), "probe" numbers come from the harness's own
// sequential pass over the workload's distinct binaries, and the rest
// from the program's own spans, metrics registry and stores.
var perLayer = []metric{
	{Name: "firmware.unpack_ms", Unit: "ms", Better: "lower", Moves: "wall_s, unit_p50_ms on replay"},
	{Name: "image.parse_ms", Unit: "ms", Better: "lower", Moves: "wall_s on replay"},
	{Name: "cfg.build_ms", Unit: "ms", Better: "lower", Moves: "unit_p50_ms on screen; wall_s on replay"},
	{Name: "cfg.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb on screen and replay"},
	{Name: "cfg.functions", Unit: "count", Better: "lower", Exact: true, Moves: "none (input size)"},
	{Name: "cfg.blocks", Unit: "count", Better: "lower", Exact: true, Moves: "none (input size)"},
	{Name: "cfg.call_edges", Unit: "count", Better: "lower", Exact: true, Moves: "none (input size)"},

	{Name: "symexec.ms", Unit: "ms", Better: "lower", Moves: "wall_s, cpu_s on study"},
	{Name: "symexec.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb on study"},
	{Name: "symexec.states", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on study"},
	{Name: "symexec.defpairs", Unit: "count", Better: "lower", Exact: true, Moves: "alloc_mb on study"},
	{Name: "symexec.truncated", Unit: "count", Better: "lower", Exact: true, Moves: "none (budget cut-offs)"},

	{Name: "alias.rewrite_ms", Unit: "ms", Better: "lower", Moves: "wall_s on study"},
	{Name: "alias.added", Unit: "count", Better: "lower", Exact: true, Moves: "alloc_mb on study"},
	{Name: "alias.dropped", Unit: "count", Better: "lower", Exact: true, Moves: "none (budget cut-offs)"},
	{Name: "alias.classes", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on study"},
	{Name: "sse.intern_nodes", Unit: "count", Better: "lower", Exact: true, Moves: "alloc_mb on study"},
	{Name: "sse.intern_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "alloc_mb on study"},

	{Name: "dataflow.phase1_ms", Unit: "ms", Better: "lower", Moves: "wall_s, cpu_s on study"},
	{Name: "dataflow.resolve_ms", Unit: "ms", Better: "lower", Moves: "unit_p99_ms on screen"},
	{Name: "dataflow.bottomup_ms", Unit: "ms", Better: "lower", Moves: "wall_s, cpu_s on study"},
	{Name: "dataflow.count_sinks_ms", Unit: "ms", Better: "lower", Moves: "wall_s on study"},
	{Name: "dataflow.symexec_calls", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s, cpu_s on study"},
	{Name: "dataflow.functions", Unit: "count", Better: "lower", Exact: true, Moves: "none (analyzed functions)"},
	{Name: "dataflow.states_explored", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s, cpu_s on study"},
	{Name: "dataflow.components", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on study"},
	{Name: "dataflow.critical_path", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on study"},
	{Name: "dataflow.defpairs", Unit: "count", Better: "lower", Exact: true, Moves: "alloc_mb on study"},
	{Name: "dataflow.findings", Unit: "count", Better: "higher", Exact: true, Moves: "none (must match ground truth)"},
	{Name: "dataflow.truncated", Unit: "count", Better: "lower", Exact: true, Moves: "none (budget cut-offs)"},
	{Name: "dataflow.worker_busy_ratio", Unit: "ratio", Better: "higher", Moves: "wall_s on study"},
	{Name: "dataflow.bottomup_speedup", Unit: "ratio", Better: "higher", Moves: "wall_s on study"},

	{Name: "resolve.by_sse", Unit: "count", Better: "higher", Exact: true, Moves: "unit_p99_ms on screen"},
	{Name: "resolve.by_structsim", Unit: "count", Better: "higher", Exact: true, Moves: "unit_p99_ms on screen"},
	{Name: "resolve.resolved", Unit: "count", Better: "higher", Exact: true, Moves: "unit_p99_ms on screen"},

	{Name: "sumstore.hits", Unit: "count", Better: "higher", Exact: true, Moves: "wall_s on replay and diff"},
	{Name: "sumstore.misses", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on replay and diff"},
	{Name: "sumstore.hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "wall_s on replay and diff"},
	{Name: "sumstore.entries", Unit: "count", Better: "lower", Exact: true, Moves: "peak_rss_mb on replay"},

	{Name: "fleet.cache_hits", Unit: "count", Better: "higher", Exact: true, Moves: "wall_s, unit_p50_ms on replay"},
	{Name: "fleet.cache_misses", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s, unit_p50_ms on replay"},
	{Name: "fleet.dedup_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "wall_s on replay"},

	{Name: "diff.replayed", Unit: "count", Better: "higher", Exact: true, Moves: "wall_s on diff"},
	{Name: "diff.reanalyzed", Unit: "count", Better: "lower", Exact: true, Moves: "wall_s on diff"},
	{Name: "diff.skip_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "wall_s on diff"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "alloc_mb, wall_s on study"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "wall_s on study"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower", Moves: "alloc_mb, wall_s on study"},

	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none (harness)"},
}

// pipelineLayers are the layers whose self time the traced pass reports
// as <layer>_ms; every span the harness or the program emits maps to one
// layer through spanLayer.
var pipelineLayers = []string{
	"firmware.unpack", "image.parse", "cfg.build",
	"dataflow.phase1", "dataflow.resolve", "dataflow.bottomup", "dataflow.count_sinks",
}

// spanLayer maps span names — the harness's own and the stage spans the
// program already emits — to layers. Spans of one layer nested in each
// other (ssa-function inside function-analysis) fold into their layer.
var spanLayer = map[string]string{
	"firmware.unpack": "firmware.unpack",
	"unpack-firmware": "firmware.unpack",
	"unpack-images":   "firmware.unpack",
	"image.parse":     "image.parse",
	"parse-image":     "image.parse",
	"cfg.build":       "cfg.build",
	"build-cfg":       "cfg.build",

	"dataflow.analyze":   "dataflow.other",
	"function-analysis":  "dataflow.phase1",
	"ssa-function":       "dataflow.phase1",
	"structsim":          "dataflow.resolve",
	"interproc-dataflow": "dataflow.bottomup",
	"scc-component":      "dataflow.bottomup",
	"ddg-function":       "dataflow.bottomup",
	"count-sinks":        "dataflow.count_sinks",

	"fleet.scan-corpus": "fleet",
	"scan-image":        "fleet",
	"scan-binary":       "fleet",

	"diff.diff":     "diff",
	"diff-images":   "diff",
	"pair-binaries": "diff",
	"analyze-units": "diff",
}

func metricByName(table []metric, name string) (metric, bool) {
	for _, m := range table {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
