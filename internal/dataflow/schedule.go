package dataflow

import (
	"container/heap"
	"runtime"
	"sync"
	"time"

	"dtaint/internal/alias"
	"dtaint/internal/cfg"
	"dtaint/internal/obs"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// runUnits is the one scheduler both analysis phases run on. It runs
// len(deps) units on worker goroutines under dependency counting:
// deps[i] is the number of units unit i waits for and succ[i] lists the
// units waiting on it (phase 1's units are independent: all-zero counts,
// nil successors). Workers pull the lowest-indexed ready unit from a
// heap, so one worker runs the units in index order. newWorker runs once
// on each worker goroutine and returns that worker's unit function, which
// reports whether the unit replayed from the summary store. The finished
// count is mutex-ordered and therefore unique per unit, so the stage's
// decile progress events are identical for any worker count.
func runUnits(opts Options, stage string, deps []int, succ [][]int, newWorker func() func(i int) (replayed bool)) (workers int, st StoreStats) {
	n := len(deps)
	workers = opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	events, counted := opts.Events, opts.SummaryStore != nil

	var (
		mu       sync.Mutex
		cv       = sync.NewCond(&mu)
		ready    = make(intHeap, 0, n)
		waiting  = append([]int(nil), deps...)
		finished int
	)
	for i, d := range waiting {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	heap.Init(&ready)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			for {
				mu.Lock()
				for len(ready) == 0 && finished < n {
					cv.Wait()
				}
				if len(ready) == 0 {
					mu.Unlock()
					return
				}
				i := heap.Pop(&ready).(int)
				mu.Unlock()

				replayed := run(i)

				mu.Lock()
				finished++
				done := finished
				if counted {
					if replayed {
						st.Hits++
					} else {
						st.Misses++
					}
				}
				if succ != nil {
					for _, s := range succ[i] {
						waiting[s]--
						if waiting[s] == 0 {
							heap.Push(&ready, s)
						}
					}
				}
				cv.Broadcast()
				mu.Unlock()
				events.ProgressDecile(stage, done, n)
			}
		}()
	}
	wg.Wait()
	return workers, st
}

// fnRecorder is the one instrument for a per-function symbolic
// execution, in either phase: a span per function under the phase's
// parent, the phase's time histogram, and the states-explored histogram
// both phases share.
type fnRecorder struct {
	span   string
	sec    *obs.Histogram
	states *obs.Histogram
}

func newFnRecorder(m *obs.Registry, span, secName, secHelp string) *fnRecorder {
	return &fnRecorder{
		span: span,
		sec:  m.Histogram(secName, secHelp, obs.DefTimeBuckets, nil),
		states: m.Histogram("dtaint_fn_states_explored",
			"Symbolic states explored per function.", obs.ExpBuckets(1, 4, 8), nil),
	}
}

// fnRun is one recorded execution, from start to end.
type fnRun struct {
	rec  *fnRecorder
	span *obs.Span
	t0   time.Time
}

// start opens fn's span under parent (nil-safe) and starts its clock.
func (r *fnRecorder) start(parent *obs.Span, fn string) fnRun {
	return fnRun{rec: r, span: parent.StartChild(r.span, obs.KV("fn", fn)), t0: time.Now()}
}

// end observes the execution's time and explored states, then closes
// its span.
func (f fnRun) end(sum *symexec.Summary) {
	f.rec.sec.Observe(time.Since(f.t0).Seconds())
	f.rec.states.Observe(float64(sum.StatesExplored))
	f.span.End()
}

// runBottomUp executes the bottom-up interprocedural phase (3+4) over the
// call graph's SCC condensation: a component is ready once its callee
// components are summarized. Each component is analyzed by its own
// tracker shard; its findings, pendings, and counters are stashed per
// component and merged in condensation order afterwards, so the result
// is bit-identical for every worker count.
//
// With a summary store, each component's Merkle key (its function
// digests chained with every callee component's key) is consulted
// before analysis: a stored entry replays the component's complete
// contribution — exported summaries, climbing pending sinks, findings,
// and counters — so the published state and the merged result are
// byte-for-byte what a fresh execution would produce.
func runBottomUp(prog *cfg.Program, names []string, opts Options, fp *sumstore.Fingerprinter, res *Result, stageSpan *obs.Span) {
	cond := prog.Condense(names)
	store := opts.SummaryStore
	var keys []string
	if store != nil {
		// Computed after structsim, so resolved indirect callsites and
		// the call edges they added are part of every key.
		keys = fp.CompKeys(cond)
	}
	rec := newFnRecorder(opts.Metrics, "ddg-function", "dtaint_fn_ddg_seconds",
		"Per-function interprocedural data-flow time (phase 3+4).")
	base := newTracker(opts, prog.Binary)
	shared := &bottomUpState{
		summaries: res.Summaries,
		pendings:  make(map[string][]taint.PendingSink),
	}
	done := make([]compResult, len(cond.Comps))
	analyze := func(i int) bool {
		replayed := false
		var r compResult
		if store != nil {
			if ent, ok := store.GetEntry(keys[i]); ok {
				r, replayed = entryToComp(ent), true
			}
		}
		if !replayed {
			r = analyzeComponent(prog, opts, base, shared, cond.Comps[i], i, stageSpan, rec)
			if store != nil {
				store.PutEntry(keys[i], compToEntry(cond.Comps[i], r))
			}
		}
		shared.publish(r)
		done[i] = r
		return replayed
	}
	workers, st := runUnits(opts, "interproc-dataflow", cond.NumDeps, cond.Callers,
		func() func(int) bool { return analyze })
	res.SumStore.Hits += st.Hits
	res.SumStore.Misses += st.Misses
	res.Parallel = ParallelStats{
		Workers:      workers,
		Components:   len(cond.Comps),
		CriticalPath: cond.CriticalPath(),
	}
	stageSpan.SetAttr("workers", workers)
	stageSpan.SetAttr("components", len(cond.Comps))

	// Deterministic merge: concatenate per-component results in the
	// condensation's (reverse topological) order — exactly the order the
	// sequential schedule produces them in.
	for i := range done {
		res.Findings = append(res.Findings, done[i].findings...)
		res.FunctionsAnalyzed += len(cond.Comps[i])
		res.DefPairCount += done[i].defPairs
		res.Truncated += done[i].truncated
		res.AliasAdded += done[i].aliasAdded
		res.AliasDropped += done[i].aliasDropped
	}
}

// bottomUpState is the published cross-component state: summaries and
// pending sinks of every completed component. The scheduler's dependency
// counting guarantees a caller component only starts after its callee
// components have published, so readers always find what they need.
type bottomUpState struct {
	mu        sync.RWMutex
	summaries map[string]*symexec.Summary
	pendings  map[string][]taint.PendingSink
}

func (s *bottomUpState) summary(name string) (*symexec.Summary, bool) {
	s.mu.RLock()
	sum, ok := s.summaries[name]
	s.mu.RUnlock()
	return sum, ok
}

func (s *bottomUpState) pending(name string) []taint.PendingSink {
	s.mu.RLock()
	ps := s.pendings[name]
	s.mu.RUnlock()
	return ps
}

func (s *bottomUpState) publish(r compResult) {
	s.mu.Lock()
	for name, sum := range r.summaries {
		s.summaries[name] = sum
	}
	for name, ps := range r.pendings {
		s.pendings[name] = ps
	}
	s.mu.Unlock()
}

// compResult is one component's contribution, stashed until the merge.
// The alias counts are live-run telemetry only: they are NOT
// round-tripped through the summary store (compToEntry/entryToComp drop
// them), so replayed components contribute zero and the deterministic
// result fields stay byte-identical with and without a store.
type compResult struct {
	summaries    map[string]*symexec.Summary
	pendings     map[string][]taint.PendingSink
	findings     []taint.Finding
	defPairs     int
	truncated    int
	aliasAdded   int
	aliasDropped int
}

// compToEntry packages a component's contribution for the summary
// store. Summaries are listed in the component's fixed function order
// so encoding is deterministic.
func compToEntry(comp []string, r compResult) *sumstore.Entry {
	ent := &sumstore.Entry{
		Pendings:  r.pendings,
		Findings:  r.findings,
		DefPairs:  r.defPairs,
		Truncated: r.truncated,
	}
	for _, name := range comp {
		if sum, ok := r.summaries[name]; ok {
			ent.Summaries = append(ent.Summaries, sum)
		}
	}
	return ent
}

// entryToComp replays a stored component contribution.
func entryToComp(ent *sumstore.Entry) compResult {
	r := compResult{
		summaries: make(map[string]*symexec.Summary, len(ent.Summaries)),
		pendings:  ent.Pendings,
		findings:  ent.Findings,
		defPairs:  ent.DefPairs,
		truncated: ent.Truncated,
	}
	if r.pendings == nil {
		r.pendings = make(map[string][]taint.PendingSink)
	}
	for _, sum := range ent.Summaries {
		r.summaries[sum.Func] = sum
	}
	return r
}

// analyzeComponent runs Algorithm 2 over one SCC component with a private
// tracker shard. Functions inside the component are processed in sorted
// order (the component's fixed order), mirroring the sequential pass;
// lookups prefer the in-flight component, then the published state.
func analyzeComponent(prog *cfg.Program, opts Options, base *taint.Tracker, shared *bottomUpState, comp []string, idx int, stageSpan *obs.Span, rec *fnRecorder) compResult {
	shard := base.Shard()
	local := make(map[string]*symexec.Summary, len(comp))
	oracle := &interOracle{
		tracker: shard,
		lookup: func(name string) (*symexec.Summary, bool) {
			if sum, ok := local[name]; ok {
				return sum, true
			}
			return shared.summary(name)
		},
		pendings: func(name string) []taint.PendingSink {
			if _, ok := local[name]; ok {
				return shard.Pendings(name)
			}
			return shared.pending(name)
		},
		noVRange: opts.DisableVRange,
	}
	out := compResult{
		summaries: local,
		pendings:  make(map[string][]taint.PendingSink, len(comp)),
	}
	compSpan := stageSpan.StartChild("scc-component",
		obs.KV("index", idx), obs.KV("functions", len(comp)))
	for _, name := range comp {
		run := rec.start(compSpan, name)
		shard.BeginFunction(name)
		sum := symexec.Analyze(prog.ByName[name], prog.Binary, oracle, opts.Symexec)
		if !opts.DisableAlias {
			var ast alias.Stats
			if opts.DisableSSE {
				sum.DefPairs, ast = alias.Rewrite(sum.DefPairs, sum.Types)
			} else {
				sum.DefPairs, ast = alias.RewriteSSE(sum.DefPairs, sum.Types)
			}
			run.span.SetAttr("alias_added", ast.Added)
			run.span.SetAttr("alias_dropped", ast.Dropped)
			out.aliasAdded += ast.Added
			out.aliasDropped += ast.Dropped
		}
		shard.EndFunction(sum)
		run.end(sum)
		local[name] = sum
		out.defPairs += len(sum.DefPairs)
		if sum.Truncated {
			out.truncated++
		}
	}
	compSpan.End()
	for _, name := range comp {
		if ps := shard.Pendings(name); len(ps) > 0 {
			out.pendings[name] = ps
		}
	}
	out.findings = shard.Findings()
	return out
}

// intHeap is a min-heap of unit indices: with one worker the pop order
// reproduces the sequential order exactly, and with many it keeps
// scheduling deterministic enough to debug.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
