package main

import (
	"runtime"
	"sort"
	"time"

	"dtaint/internal/alias"
	"dtaint/internal/cfg"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// layerOf maps a span name to its layer; names the table does not know
// belong to the harness.
func layerOf(name string) string {
	if l, ok := spanLayer[name]; ok {
		return l
	}
	return "harness"
}

// layerSelfTimes sums self time per layer. A span whose parent belongs to
// another layer (or that has no parent) is a layer root; its self time is
// its duration minus the part of it covered by descendants of other
// layers, found by walking down through descendants of its own layer.
// Same-layer descendants are not subtracted, so a stage whose per-function
// children run in parallel counts its wall time once. Layer roots that run
// concurrently (one per binary in a parallel screen) add up, so a layer's
// time is the busy time summed over the goroutines that ran it.
func layerSelfTimes(spans []obs.SpanRecord) map[string]time.Duration {
	byID := make(map[uint64]int, len(spans))
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	for i, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		l := layerOf(s.Name)
		if pi, ok := byID[s.Parent]; ok && layerOf(spans[pi].Name) == l {
			continue
		}
		start, end := s.Start, s.Start.Add(s.Duration)
		var covered []interval
		var walk func(id uint64)
		walk = func(id uint64) {
			for _, ci := range children[id] {
				c := spans[ci]
				if layerOf(c.Name) == l {
					walk(c.ID)
					continue
				}
				iv := interval{c.Start, c.Start.Add(c.Duration)}
				if iv.start.Before(start) {
					iv.start = start
				}
				if iv.end.After(end) {
					iv.end = end
				}
				if iv.end.After(iv.start) {
					covered = append(covered, iv)
				}
			}
		}
		walk(s.ID)
		out[l] += s.Duration - unionLength(covered)
	}
	return out
}

type interval struct{ start, end time.Time }

// unionLength is the total length covered by the intervals.
func unionLength(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(ivs) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// spanFacts reads the work counters the program attaches to its stage
// spans: resolved indirect calls by method, and the bottom-up scheduler's
// busy share (Σ scc-component time over workers × interproc-dataflow time).
func spanFacts(spans []obs.SpanRecord, out map[string]float64) {
	var busy, capacity time.Duration
	for _, s := range spans {
		switch s.Name {
		case "structsim":
			out["resolve.by_sse"] += attrFloat(s, "by_sse")
			out["resolve.by_structsim"] += attrFloat(s, "by_structsim")
		case "interproc-dataflow":
			capacity += time.Duration(attrFloat(s, "workers")) * s.Duration
		case "scc-component":
			busy += s.Duration
		}
	}
	out["resolve.resolved"] = out["resolve.by_sse"] + out["resolve.by_structsim"]
	if capacity > 0 {
		out["dataflow.worker_busy_ratio"] = float64(busy) / float64(capacity)
	}
}

func attrFloat(s obs.SpanRecord, key string) float64 {
	switch v := s.Attr(key).(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// registryFacts reads the dataflow stage's counters and per-function
// histograms from the pass's metrics registry.
func registryFacts(reg *obs.Registry, out map[string]float64) {
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "dtaint_fn_ssa_seconds", "dtaint_fn_ddg_seconds":
			out["dataflow.symexec_calls"] += float64(m.Count)
		case "dtaint_fn_states_explored":
			out["dataflow.states_explored"] += m.Sum
		case "dtaint_functions_analyzed_total":
			out["dataflow.functions"] += m.Value
		case "dtaint_defpairs_total":
			out["dataflow.defpairs"] += m.Value
		case "dtaint_findings_total":
			out["dataflow.findings"] += m.Value
		case "dtaint_truncated_functions_total":
			out["dataflow.truncated"] += m.Value
		}
	}
}

// probeInput is one distinct binary of a workload with the function
// filter its analysis uses (nil analyzes every function).
type probeInput struct {
	raw    []byte
	filter func(string) bool
}

// probe times the layers the program's own spans cannot separate: it
// runs cfg.Build, then symexec.Analyze on every analyzed function with a
// scratch tracker exactly as phase 1 does, then alias.RewriteSSE over the
// resulting summaries — sequentially, one binary at a time, with a
// MemStats delta around each layer. It runs on every distinct binary of
// the workload whether or not the workload's own path executes the layer
// (replay replays every summary from the store), so the layer's cost on
// that workload's code is always measured.
func probe(inputs []probeInput, out map[string]float64) error {
	symOpts := analysisOptions().Symexec
	symOpts.Prototypes = taint.PrototypesFor(nil)
	var symTime, aliasTime time.Duration
	var cfgAlloc, symAlloc uint64
	var intern struct{ hits, misses uint64 }
	for _, in := range inputs {
		bin, err := image.Parse(in.raw)
		if err != nil {
			return err
		}
		a0 := totalAlloc()
		prog, err := cfg.Build(bin)
		cfgAlloc += totalAlloc() - a0
		if err != nil {
			return err
		}
		st := prog.Stats()
		out["cfg.functions"] += float64(st.Functions)
		out["cfg.blocks"] += float64(st.Blocks)
		out["cfg.call_edges"] += float64(st.CallGraphEdges)

		var names []string
		for _, fn := range prog.Funcs {
			if in.filter == nil || in.filter(fn.Name) {
				names = append(names, fn.Name)
			}
		}
		sort.Strings(names)
		cond := prog.Condense(names)
		out["dataflow.components"] += float64(len(cond.Comps))
		out["dataflow.critical_path"] += float64(cond.CriticalPath())

		scratch := taint.NewTracker()
		scratch.SetBinary(bin)
		sums := make([]*symexec.Summary, 0, len(names))
		a0, t0 := totalAlloc(), time.Now()
		for _, name := range names {
			scratch.BeginFunction(name)
			sums = append(sums, symexec.Analyze(prog.ByName[name], bin, scratch, symOpts))
		}
		symTime += time.Since(t0)
		symAlloc += totalAlloc() - a0
		for _, sum := range sums {
			out["symexec.states"] += float64(sum.StatesExplored)
			out["symexec.defpairs"] += float64(len(sum.DefPairs))
			if sum.Truncated {
				out["symexec.truncated"]++
			}
		}

		t0 = time.Now()
		for _, sum := range sums {
			_, ast := alias.RewriteSSE(sum.DefPairs, sum.Types)
			out["alias.added"] += float64(ast.Added)
			out["alias.dropped"] += float64(ast.Dropped)
			out["alias.classes"] += float64(ast.Classes)
			out["sse.intern_nodes"] += float64(ast.Intern.Nodes)
			intern.hits += ast.Intern.Hits
			intern.misses += ast.Intern.Misses
		}
		aliasTime += time.Since(t0)
	}
	out["cfg.alloc_mb"] = mb(cfgAlloc)
	out["symexec.ms"] = ms(symTime)
	out["symexec.alloc_mb"] = mb(symAlloc)
	out["alias.rewrite_ms"] = ms(aliasTime)
	if n := intern.hits + intern.misses; n > 0 {
		out["sse.intern_hit_ratio"] = float64(intern.hits) / float64(n)
	}
	return nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
