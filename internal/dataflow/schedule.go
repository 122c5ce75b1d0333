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
// decile progress events are identical for any worker count. With no
// units it starts no worker.
func runUnits(opts Options, stage string, deps []int, succ [][]int, newWorker func() func(i int) (replayed bool)) (workers int, st StoreStats) {
	n := len(deps)
	workers = opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	if n == 0 {
		return workers, st
	}
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
// components are summarized. Each worker runs its components through its
// own engine, oracle and tracker, which hold one function at a time and
// keep their storage for the next; every function's summary and pending
// sinks are published as soon as it ends. The
// component's store entry holds its findings and counters until they are
// merged in condensation order, so the result is bit-identical for every
// worker count.
//
// With a summary store, each component's Merkle key (its function
// digests chained with every callee component's key) is consulted
// before analysis: a stored entry is published as a whole and replays
// the component's complete contribution — exported summaries, climbing
// pending sinks, findings, and counters — so the published state and the
// merged result are byte-for-byte what a fresh execution would produce.
func runBottomUp(prog *cfg.Program, names []string, opts Options, res *Result, stageSpan *obs.Span) {
	cond, keys := components(prog, names, opts)
	store := opts.SummaryStore
	rec := newFnRecorder(opts.Metrics, "ddg-function", "dtaint_fn_ddg_seconds",
		"Per-function interprocedural data-flow time (phase 3+4).")
	shared := &bottomUpState{
		summaries: res.Summaries,
		pendings:  make(map[string][]taint.PendingSink),
	}
	done := make([]compResult, len(cond.Comps))
	workers, st := runUnits(opts, "interproc-dataflow", cond.NumDeps, cond.Callers, func() func(int) bool {
		eng := new(symexec.Engine)
		oracle := &interOracle{tracker: newTracker(opts, prog.Binary), published: shared, noVRange: opts.DisableVRange}
		return func(i int) bool {
			if store != nil {
				if ent, ok := store.GetEntry(opts.Symexec.Table, keys[i]); ok {
					for _, sum := range ent.Summaries {
						shared.publish(sum, ent.Pendings[sum.Func])
					}
					done[i].Entry = ent
					return true
				}
			}
			done[i] = analyzeComponent(prog, opts, eng, oracle, cond.Comps[i], i, stageSpan, rec)
			if store != nil {
				store.PutEntry(keys[i], done[i].Entry)
			}
			return false
		}
	})
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
		res.Findings = append(res.Findings, done[i].Findings...)
		res.FunctionsAnalyzed += len(cond.Comps[i])
		res.DefPairCount += done[i].DefPairs
		res.Truncated += done[i].Truncated
		res.AliasAdded += done[i].aliasAdded
		res.AliasDropped += done[i].aliasDropped
	}
}

// bottomUpState is the one copy of what the bottom-up pass publishes:
// the summary and pending sinks of every function that has ended. Each
// function is published as soon as it ends, so later functions of its
// own component read it here; dependency counting starts a caller
// component only after its callee components have ended. A component
// running concurrently never looks these facts up: a lookup follows a
// call edge, and a call edge is a dependency.
type bottomUpState struct {
	mu        sync.RWMutex
	summaries map[string]*symexec.Summary
	pendings  map[string][]taint.PendingSink
}

// lookup returns a published function's summary and pending sinks.
func (s *bottomUpState) lookup(name string) (*symexec.Summary, []taint.PendingSink, bool) {
	s.mu.RLock()
	sum, ok := s.summaries[name]
	ps := s.pendings[name]
	s.mu.RUnlock()
	return sum, ps, ok
}

// publish records an ended function's summary and pending sinks.
func (s *bottomUpState) publish(sum *symexec.Summary, ps []taint.PendingSink) {
	s.mu.Lock()
	s.summaries[sum.Func] = sum
	if len(ps) > 0 {
		s.pendings[sum.Func] = ps
	}
	s.mu.Unlock()
}

// compResult is one component's contribution, kept until the merge: its
// summary-store entry plus the alias counts. The alias counts are
// live-run telemetry only and never stored, so replayed components
// contribute zero and the deterministic result fields stay
// byte-identical with and without a store.
type compResult struct {
	*sumstore.Entry
	aliasAdded   int
	aliasDropped int
}

// analyzeComponent runs Algorithm 2 over one SCC component through the
// worker's engine and oracle. Functions inside the component are
// processed in sorted order (the component's fixed order), mirroring the
// sequential pass; each is published as soon as EndFunction returns its
// pending sinks, and its findings are appended to the component's entry
// in that order. A summary's constraints live in the engine's buffer,
// which its next function reuses, so they are dropped once EndFunction
// has read them.
func analyzeComponent(prog *cfg.Program, opts Options, eng *symexec.Engine, oracle *interOracle, comp []string, idx int, stageSpan *obs.Span, rec *fnRecorder) compResult {
	out := compResult{Entry: &sumstore.Entry{Summaries: make([]*symexec.Summary, 0, len(comp))}}
	compSpan := stageSpan.StartChild("scc-component",
		obs.KV("index", idx), obs.KV("functions", len(comp)))
	for _, name := range comp {
		run := rec.start(compSpan, name)
		oracle.tracker.BeginFunction(name)
		sum := eng.Analyze(prog.ByName[name], prog.Binary, oracle, opts.Symexec)
		if !opts.DisableAlias {
			var ast alias.Stats
			if opts.DisableSSE {
				sum.DefPairs, ast = alias.Rewrite(opts.Symexec.Table, sum.DefPairs, sum.Types)
			} else {
				sum.DefPairs, ast = alias.RewriteSSEIn(opts.Symexec.Table, sum.DefPairs, sum.Types)
			}
			run.span.SetAttr("alias_added", ast.Added)
			run.span.SetAttr("alias_dropped", ast.Dropped)
			out.aliasAdded += ast.Added
			out.aliasDropped += ast.Dropped
		}
		fs, ps := oracle.tracker.EndFunction(sum)
		// The verdict was the constraints' last reader: callers read Ranges
		// and the constraints each pending sink carries, which EndFunction
		// copied out of the engine's buffer.
		sum.Constraints = nil
		run.end(sum)
		oracle.published.publish(sum, ps)
		out.Summaries = append(out.Summaries, sum)
		out.Findings = append(out.Findings, fs...)
		if len(ps) > 0 {
			if out.Pendings == nil {
				out.Pendings = make(map[string][]taint.PendingSink)
			}
			out.Pendings[name] = ps
		}
		out.DefPairs += len(sum.DefPairs)
		if sum.Truncated {
			out.Truncated++
		}
	}
	compSpan.End()
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
