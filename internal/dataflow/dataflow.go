// Package dataflow implements DTaint's interprocedural data-flow
// generation (Section III-E, Algorithm 2) and orchestrates the whole
// analysis pipeline:
//
//  1. Function analysis — every function is symbolically analyzed once
//     (package symexec), yielding definition pairs, types, and
//     data-structure field observations.
//  2. Indirect-call resolution (sseresolve.go): callsites are matched to
//     function-pointer registrations through SSE equivalence classes
//     (package sse) with data-structure layout similarity (package
//     structsim) as tie-breaker and fallback, augmenting the call graph.
//  3. Bottom-up interprocedural pass — the call graph is condensed into
//     its SCC DAG (cfg.Condense) and traversed callees-before-callers,
//     each function again analyzed exactly once; at every callsite the
//     callee's exported definitions, return values, and pending sinks are
//     instantiated by replacing formal arguments arg0..arg9 and
//     ret_callsite symbols with the caller's actual expressions
//     (Algorithm 2's ReplaceFormalArgs / ReplaceRetVariable), with heap
//     identities re-hashed per callsite chain.
//  4. Pointer-alias rewriting (package alias) extends each function's
//     definition pairs before they are exported — by default from SSE
//     equivalence classes (alias.RewriteSSE), under -ablate sse via the
//     paper's pairwise Algorithm 1.
//
// Both analysis phases run on one dependency-counting scheduler
// (runUnits). Phase 1's units are functions with no dependencies. Phases
// 3+4's units are the condensation's components: sibling components of
// the SCC DAG have no ordering constraint, so workers pull ready
// components (all callee components summarized) from a queue and
// decrement caller in-degrees on completion. Every component is analyzed
// by its own taint-tracker shard and the per-component findings are
// concatenated in the condensation's topological order, so the output —
// findings, their order, and every counter — is bit-identical for any
// worker count, including the sequential schedule.
//
// The result carries every (source, path, sink) finding plus the
// measurements the evaluation tables report.
package dataflow

import (
	"errors"
	"log/slog"
	"sort"
	"strings"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/structsim"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vrange"
)

// Options configures the pipeline.
type Options struct {
	// Symexec tunes the per-function engine.
	Symexec symexec.Options
	// DisableAlias skips Algorithm 1 (ablation).
	DisableAlias bool
	// DisableStructSim skips indirect-call resolution (ablation).
	DisableStructSim bool
	// DisableSSE turns off structured symbolic expressions (ablation):
	// pointer-alias rewriting falls back to Algorithm 1's pairwise pass
	// and indirect calls are resolved by layout similarity alone instead
	// of from SSE equivalence classes. The feature bit is folded into
	// OptionsFingerprint, so cached summaries from either configuration
	// never cross.
	DisableSSE bool
	// DisableVRange turns off the interval value-range domain (ablation):
	// sink verdicts fall back to the purely structural/constraint checks,
	// and callee range facts are not imported at callsites. Path discovery
	// is unaffected — only Sanitized and the finding class can change.
	DisableVRange bool
	// Filter restricts analysis to functions for which it returns true
	// (the paper manually restricts Uniview/Hikvision to their network
	// modules). Nil analyzes everything.
	Filter func(name string) bool
	// Vocab replaces the embedded default source/sink/sanitizer
	// vocabulary with a compiled custom spec (see internal/vocab). Nil
	// uses the default. The vocabulary drives library-call models, the
	// sink census, type prototypes, and sanitization verdicts, and its
	// fingerprint is folded into OptionsFingerprint so vocabulary changes
	// invalidate cached summaries and reports.
	Vocab *taint.Vocabulary
	// SummaryStore, when non-nil, caches analysis results content-
	// addressed by function bytes + ISA + options fingerprint
	// (internal/sumstore): phase-1 summaries per function and bottom-up
	// results per SCC component. The scheduler consults it before
	// symbolically executing a unit and writes back after, so a corpus
	// re-scan — or a scan of binaries sharing code — skips every
	// already-summarized function. Results are bit-identical with and
	// without a store, so the store is excluded from cache fingerprints.
	SummaryStore *sumstore.Store
	// Parallelism is the worker count for both analysis phases
	// (0 = GOMAXPROCS). The per-function phase fans out over independent
	// units; the bottom-up interprocedural phase schedules SCC components
	// of the condensed call graph whose callees are all summarized, so
	// sibling components run concurrently. Results are identical for any
	// value, including 1 (the fully sequential schedule).
	Parallelism int

	// Tracer records pipeline-stage spans (nil = tracing off). Observability
	// handles never influence analysis results and are excluded from fleet
	// cache fingerprints.
	Tracer *obs.Tracer
	// ParentSpan nests this analysis's stage spans under an enclosing span
	// (e.g. a fleet scan's per-binary span). Nil makes stages root spans.
	ParentSpan *obs.Span
	// Metrics receives stage counters and the per-function time /
	// states-explored histograms (nil = collection off).
	Metrics *obs.Registry
	// Log receives structured per-stage logs (nil = logging off).
	Log *slog.Logger
	// Events receives first-class telemetry events: per-stage progress
	// at decile granularity, one event per finding after the
	// deterministic merge, and a summary-store stats event. Stage
	// start/end events come from the span→event bridge over Tracer, not
	// from here. Nil disables emission; like the other observability
	// handles, Events never influences results and is excluded from
	// cache fingerprints.
	Events *events.Emitter
}

// Stage couples one pipeline stage's span and log lines. Other pipeline
// layers (the root package, internal/fleet) reuse it so every stage
// traces and logs identically.
type Stage struct {
	span  *obs.Span
	log   *slog.Logger
	name  string
	start time.Time
}

// StartStage opens a stage span under Options.ParentSpan and emits a
// debug start line. All handles are nil-safe.
func (o Options) StartStage(name string, attrs ...obs.Attr) *Stage {
	st := &Stage{log: o.Log, name: name, start: time.Now()}
	st.span = o.Tracer.Start(o.ParentSpan, name, attrs...)
	if o.Log != nil {
		o.Log.Debug("stage start", "stage", name)
	}
	return st
}

// End closes the stage span, logs completion, and returns the stage's
// elapsed time; extra args are alternating slog key/value pairs.
func (st *Stage) End(args ...any) time.Duration {
	elapsed := time.Since(st.start)
	st.span.End()
	if st.log != nil {
		all := append([]any{"stage", st.name, "seconds", elapsed.Seconds()}, args...)
		st.log.Info("stage done", all...)
	}
	return elapsed
}

// newTracker builds a tracker with the configured vocabulary and access
// to the program image (for rodata-aware models).
func newTracker(opts Options, bin *image.Binary) *taint.Tracker {
	t := taint.NewTracker()
	t.SetVocabulary(opts.Vocab)
	t.SetBinary(bin)
	if opts.DisableVRange {
		t.DisableValueRange()
	}
	return t
}

// Result is the output of a whole-binary analysis.
type Result struct {
	// Summaries holds the final per-function summaries (post alias
	// rewriting), keyed by function name.
	Summaries map[string]*symexec.Summary
	// Findings are all (source, path, sink) tuples, sanitized or not.
	Findings []taint.Finding
	// Resolutions are the indirect calls bound by layout similarity.
	Resolutions []structsim.Resolution

	FunctionsAnalyzed int
	SinkCount         int
	DefPairCount      int
	SSATime           time.Duration
	DDGTime           time.Duration
	Truncated         int // functions that dropped a path at the per-block bound or hit the per-function cap

	// Parallel reports how the bottom-up scheduler executed (phase 3+4).
	Parallel ParallelStats

	// Resolve reports how phase 2 bound indirect callsites (zero when
	// structsim is disabled or the run ablated SSE).
	Resolve ResolveStats
	// AliasAdded and AliasDropped count, over live-analyzed functions,
	// the alias pairs the rewrite pass synthesized and those it discarded
	// past the engine budget (MaxNewPairs / MaxNewPairsSSE). Components
	// replayed from a summary store contribute zero: the counts are run
	// telemetry, deliberately kept out of stored entries so the
	// deterministic result (findings, summaries, counters) stays
	// byte-identical with and without a store.
	AliasAdded, AliasDropped int

	// SumStore counts this run's summary-store lookups across both
	// phases (zero when Options.SummaryStore is nil).
	SumStore StoreStats
}

// StoreStats counts one analysis run's summary-store lookups.
type StoreStats struct {
	// Hits is the number of analysis units (phase-1 functions and
	// bottom-up components) replayed from the store.
	Hits int
	// Misses is the number of units that had to be symbolically
	// executed (and were then written back).
	Misses int
}

// ParallelStats describes one parallel bottom-up interprocedural pass.
type ParallelStats struct {
	// Workers is the worker count the SCC-DAG scheduler ran with.
	Workers int
	// Components is the number of call-graph SCC components scheduled.
	Components int
	// CriticalPath is the longest chain of dependent components — the
	// minimum number of sequential scheduling steps, so
	// Components/CriticalPath approximates the achievable DDG speedup.
	CriticalPath int
}

// VulnerablePaths returns the unsanitized findings (Table III's
// "Vulnerable paths" column).
func (r *Result) VulnerablePaths() []taint.Finding {
	var out []taint.Finding
	for _, f := range r.Findings {
		if !f.Sanitized {
			out = append(out, f)
		}
	}
	return out
}

// Vulnerabilities deduplicates unsanitized findings by sink location and
// class (Table III's "Vulnerability" column: several paths may reach the
// same weak sink).
func (r *Result) Vulnerabilities() []taint.Finding {
	seen := make(map[string]bool)
	var out []taint.Finding
	for _, f := range r.Findings {
		if f.Sanitized {
			continue
		}
		key := taint.VulnKey(f.SinkFunc, f.Sink, f.SinkAddr, f.Class.String())
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
	}
	return out
}

// ErrNoProgram is returned when prog is nil or empty.
var ErrNoProgram = errors.New("dataflow: empty program")

// Analyze runs the full DTaint pipeline over a program.
func Analyze(prog *cfg.Program, opts Options) (*Result, error) {
	if prog == nil || len(prog.Funcs) == 0 {
		return nil, ErrNoProgram
	}
	names := filteredNames(prog, opts.Filter)
	if len(names) == 0 {
		return nil, ErrNoProgram
	}
	opts = opts.withVocab()
	res := &Result{Summaries: make(map[string]*symexec.Summary, len(names))}
	fp := fingerprinter(prog, opts)

	// Phase 1: per-function static symbolic analysis (the paper's SSA
	// module), collecting layouts, types, and indirect callsites.
	st := opts.StartStage("function-analysis", obs.KV("functions", len(names)))
	var phase1 map[string]*symexec.Summary
	phase1, res.SumStore = runPhase1(prog, names, opts, fp, st.span)
	res.SSATime = st.End("functions", len(names))

	// Phase 2: indirect-call resolution. By default each callsite is
	// resolved from SSE equivalence classes (registration and dispatch
	// paths expanded through per-function alias classes, matched by
	// interned-path identity) with layout similarity demoted to a
	// tie-breaker; ablating SSE falls back to pure layout-similarity
	// resolution, and ablating structsim skips the phase entirely.
	if !opts.DisableStructSim {
		st = opts.StartStage("structsim")
		if opts.DisableSSE {
			res.Resolutions = structsim.ResolveIndirect(phase1)
		} else {
			res.Resolutions, res.Resolve = resolveIndirectSSE(phase1)
			st.span.SetAttr("by_sse", res.Resolve.BySSE)
			st.span.SetAttr("by_structsim", res.Resolve.ByStructSim)
		}
		for _, r := range res.Resolutions {
			prog.AddCallEdge(r.Caller, r.Site, r.Callee)
		}
		st.End("resolved", len(res.Resolutions))
	}

	// Phase 3+4: bottom-up interprocedural data flow with alias rewriting,
	// scheduled over the condensed call graph's SCC DAG.
	st = opts.StartStage("interproc-dataflow", obs.KV("functions", len(names)))
	runBottomUp(prog, names, opts, fp, res, st.span)
	res.DDGTime = st.End("workers", res.Parallel.Workers,
		"components", res.Parallel.Components,
		"findings", len(res.Findings))

	st = opts.StartStage("count-sinks")
	res.SinkCount = countSinks(prog, names, res.Summaries, opts.Vocab)
	st.End("sinks", res.SinkCount)

	// Findings are emitted after the deterministic per-component merge,
	// so their multiset (and even their order) is worker-count-independent.
	for _, f := range res.Findings {
		opts.Events.Emit(events.ScanEvent{Type: events.TypeFinding, Attrs: map[string]any{
			"class":     f.Class.String(),
			"sink":      f.Sink,
			"sinkFunc":  f.SinkFunc,
			"sinkAddr":  f.SinkAddr,
			"source":    f.Source,
			"sanitized": f.Sanitized,
		}})
	}
	if opts.SummaryStore != nil {
		opts.Events.Emit(events.ScanEvent{Type: events.TypeSumStore, Attrs: map[string]any{
			"hits":   res.SumStore.Hits,
			"misses": res.SumStore.Misses,
		}})
	}

	opts.Metrics.Counter("dtaint_functions_analyzed_total",
		"Functions analyzed by the interprocedural pass.", nil).Add(uint64(res.FunctionsAnalyzed))
	opts.Metrics.Counter("dtaint_defpairs_total",
		"Definition pairs in generated data flows.", nil).Add(uint64(res.DefPairCount))
	opts.Metrics.Counter("dtaint_findings_total",
		"Source-to-sink findings, sanitized included.", nil).Add(uint64(len(res.Findings)))
	opts.Metrics.Counter("dtaint_truncated_functions_total",
		"Functions that dropped a path at the per-block bound or hit the per-function state cap.", nil).Add(uint64(res.Truncated))
	opts.Metrics.Counter("dtaint_alias_pairs_added_total",
		"Alias pairs synthesized by the rewrite pass.", nil).Add(uint64(res.AliasAdded))
	opts.Metrics.Counter("dtaint_alias_pairs_dropped_total",
		"Synthesized alias pairs discarded past the rewrite budget.", nil).Add(uint64(res.AliasDropped))
	if opts.SummaryStore != nil {
		opts.SummaryStore.PublishMetrics(opts.Metrics)
	}
	return res, nil
}

// FunctionSummaries runs phase 1 alone over the named functions and
// returns their summaries by name: Analyze's function-analysis stage,
// with the same vocabulary and prototype resolution. With
// opts.SummaryStore set it replays the summaries a scan of the binary
// under the same options stored, and stores the rest. It opens no spans
// and emits no progress events; opts.Metrics records every function it
// executes.
func FunctionSummaries(prog *cfg.Program, names []string, opts Options) map[string]*symexec.Summary {
	opts = opts.withVocab()
	opts.Events = nil
	sums, _ := runPhase1(prog, names, opts, fingerprinter(prog, opts), nil)
	return sums
}

// withVocab resolves the default vocabulary and the type prototypes the
// vocabulary implies.
func (o Options) withVocab() Options {
	if o.Vocab == nil {
		o.Vocab = taint.DefaultVocabulary()
	}
	if o.Symexec.Prototypes == nil {
		o.Symexec.Prototypes = o.Vocab.Prototypes()
	}
	return o
}

// fingerprinter keys both cached granularities of opts.SummaryStore (nil
// without a store). The filter tag is deliberately empty: a function
// filter only selects which functions and call-graph components exist,
// and both are captured structurally by the per-function and
// per-component digests (see sumstore.Fingerprinter).
func fingerprinter(prog *cfg.Program, opts Options) *sumstore.Fingerprinter {
	if opts.SummaryStore == nil {
		return nil
	}
	return sumstore.NewFingerprinter(prog, OptionsFingerprint(opts, ""))
}

// runPhase1 analyzes every named function independently on the unit
// scheduler. Each worker's scratch tracker supplies library models; its
// findings are discarded. stageSpan (nil when tracing is off) parents one
// "ssa-function" span per executed unit — the events -progress counts
// against the stage's "functions" total. With a summary store, each
// function's phase-1 key is consulted first: phase 1 applies no callee
// summaries and its scratch tracker's side-effects are discarded, so a
// stored summary replays the unit exactly, and skipping the execution
// cannot affect any other unit.
func runPhase1(prog *cfg.Program, names []string, opts Options, fp *sumstore.Fingerprinter, stageSpan *obs.Span) (map[string]*symexec.Summary, StoreStats) {
	store := opts.SummaryStore
	var keys []string
	if store != nil {
		// Keys are derived serially up front: digests walk decoded
		// instructions, a negligible pass next to symbolic execution.
		keys = make([]string, len(names))
		for i, name := range names {
			keys[i] = fp.FuncKey(name)
		}
	}
	rec := newFnRecorder(opts.Metrics, "ssa-function", "dtaint_fn_ssa_seconds",
		"Per-function symbolic analysis time (phase 1).")
	sums := make([]*symexec.Summary, len(names))
	_, st := runUnits(opts, "function-analysis", make([]int, len(names)), nil, func() func(int) bool {
		scratch := newTracker(opts, prog.Binary)
		return func(i int) bool {
			if store != nil {
				if sum, ok := store.GetSummary(keys[i]); ok {
					sums[i] = sum
					return true
				}
			}
			run := rec.start(stageSpan, names[i])
			scratch.BeginFunction(names[i])
			sums[i] = symexec.Analyze(prog.ByName[names[i]], prog.Binary, scratch, opts.Symexec)
			run.end(sums[i])
			if store != nil {
				store.PutSummary(keys[i], sums[i])
			}
			return false
		}
	})
	out := make(map[string]*symexec.Summary, len(names))
	for i, name := range names {
		out[name] = sums[i]
	}
	return out, st
}

func filteredNames(prog *cfg.Program, filter func(string) bool) []string {
	names := make([]string, 0, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		if filter == nil || filter(fn.Name) {
			names = append(names, fn.Name)
		}
	}
	sort.Strings(names)
	return names
}

// countSinks counts static sink sites: import callsites whose callee is in
// the vocabulary's sink census plus loop-copy stores (deduplicated by
// address).
func countSinks(prog *cfg.Program, names []string, sums map[string]*symexec.Summary, v *taint.Vocabulary) int {
	census := v.SinkNames()
	sinkNames := make(map[string]bool, len(census))
	for _, s := range census {
		sinkNames[s] = true
	}
	n := 0
	for _, name := range names {
		fn := prog.ByName[name]
		for _, cs := range fn.Calls {
			if cs.Kind == cfg.CallImport && sinkNames[cs.Callee] {
				n++
			}
		}
		if sum := sums[name]; sum != nil {
			seen := map[uint32]bool{}
			for _, ls := range sum.LoopStores {
				if !seen[ls.Addr] {
					seen[ls.Addr] = true
					n++
				}
			}
		}
	}
	return n
}

// interOracle composes the taint tracker's library models with callee
// summary application for local calls (Algorithm 2). The summary and
// pending lookups are injected by the scheduler so a component worker
// sees its own in-flight component first and the published global state
// behind it.
type interOracle struct {
	tracker  *taint.Tracker
	lookup   func(name string) (*symexec.Summary, bool)
	pendings func(name string) []taint.PendingSink
	noVRange bool
}

var _ symexec.Oracle = (*interOracle)(nil)

// Call implements symexec.Oracle.
func (o *interOracle) Call(ctx *symexec.CallContext) symexec.CallEffect {
	if ctx.Kind == cfg.CallImport || ctx.Kind == cfg.CallUnknown {
		return o.tracker.Call(ctx)
	}
	sum, ok := o.lookup(ctx.Callee)
	if !ok {
		// Within an SCC (recursion) the callee may not be summarized yet;
		// the engine falls back to a fresh return symbol.
		return symexec.CallEffect{}
	}
	sub := substitutor(ctx)

	eff := symexec.CallEffect{Handled: true}
	eff.Ret = calleeRet(sum, sub, ctx.Callee, ctx.Site)
	// PushToCallSite: exported definitions (root pointer is a formal
	// argument, a heap identity, or tainted data) are instantiated in the
	// caller's state.
	for _, dp := range sum.DefPairs {
		if !exportable(dp.D) {
			continue
		}
		// Definitions mentioning callee frame-locals cannot be expressed
		// in the caller: the callee's "sp" symbol would collide with the
		// caller's own stack pointer.
		if containsFrameLocal(dp.D) || containsFrameLocal(dp.U) {
			continue
		}
		addr, okD := dp.D.DerefAddr()
		if !okD {
			continue
		}
		eff.MemDefs = append(eff.MemDefs, symexec.MemDef{
			Addr: sub(addr),
			Val:  sub(dp.U),
		})
	}
	// Interval facts proven in the callee climb to the caller: length and
	// parsed-value symbols are hash-stable across the substitution
	// (ReplaceFormalArgs cannot rewrite hashed names), so they import
	// verbatim; the return value's interval attaches to the instantiated
	// return expression's key. Formal-argument keys (argN) are skipped — a
	// bound observed on one path through the callee does not hold for the
	// actual on every path.
	if !o.noVRange && len(sum.Ranges) > 0 {
		addRange := func(k string, iv vrange.Interval) {
			if eff.Ranges == nil {
				eff.Ranges = make(map[string]vrange.Interval)
			}
			eff.Ranges[k] = iv
		}
		for k, iv := range sum.Ranges {
			if strings.HasPrefix(k, "len_") || strings.HasPrefix(k, "atoi_") {
				addRange(k, iv)
			}
		}
		if eff.Ret != nil && len(sum.Rets) > 0 {
			riv := vrange.Bottom()
			for _, r := range sum.Rets {
				riv = riv.Join(vrange.OfExpr(r, vrange.Env(sum.Ranges)))
			}
			if riv.Bounded() {
				addRange(eff.Ret.Key(), riv)
			}
		}
	}
	// Pending sinks climb from the callee into this function.
	o.tracker.ImportPending(o.pendings(ctx.Callee), sub, ctx.Site)
	return eff
}

// calleeRet instantiates a summarized callee's return value at the
// callsite (Algorithm 2's ReplaceRetVariable). A single return
// substitutes directly; a small set of alternative returns is
// OR-combined so taint in any branch's return value survives (sound for
// detection). When the set is too large to combine, or every substituted
// return resolves to nil, the callee's return must not silently vanish:
// the opaque per-callsite ret symbol (the same name the engine would
// assign) is kept instead.
func calleeRet(sum *symexec.Summary, sub func(*expr.Expr) *expr.Expr, callee string, site uint32) *expr.Expr {
	var ret *expr.Expr
	switch {
	case len(sum.Rets) == 1:
		ret = sub(sum.Rets[0])
	case len(sum.Rets) >= 2 && len(sum.Rets) <= 4:
		for _, r := range sum.Rets {
			rs := sub(r)
			if rs == nil {
				continue
			}
			if ret == nil {
				ret = rs
			} else if !ret.Equal(rs) {
				ret = expr.Bin(expr.OpOr, ret, rs)
			}
		}
	}
	if ret == nil && len(sum.Rets) > 0 {
		ret = expr.Sym(expr.RetName(callee, uint64(site)))
	}
	return ret
}

// substitutor builds Algorithm 2's replacement: formal arguments become
// the callsite's actual expressions, heap identities are re-hashed with
// the callsite (unique per callsite chain), and the result is resolved
// against the live caller state. The caller's state does not change
// while the oracle runs, so the replacement depends only on the input's
// key: each distinct callee fact is instantiated once per callsite, and
// return values, exported definitions and pending sinks that repeat it
// share the first result.
func substitutor(ctx *symexec.CallContext) func(*expr.Expr) *expr.Expr {
	site, args := uint64(ctx.Site), ctx.Args
	// ArgIndex also parses spellings such as "arg01"; only the canonical
	// name is a formal argument.
	actual := func(name string) *expr.Expr {
		if i, ok := expr.ArgIndex(name); ok && i < len(args) && name == expr.ArgName(i) {
			return args[i]
		}
		return nil
	}
	var memo map[string]*expr.Expr
	return func(e *expr.Expr) *expr.Expr {
		if e == nil {
			return nil
		}
		if r, ok := memo[e.Key()]; ok { //dtaintlint:ignore sse-key-identity expr nodes are not interned; the key is their canonical identity
			return r
		}
		if memo == nil {
			memo = make(map[string]*expr.Expr)
		}
		// Re-hash heap identities BEFORE substituting actuals: only heap
		// symbols originating in the callee (its allocation sites) extend
		// their callsite chain; heap pointers the caller passes in as
		// arguments keep their identity.
		r := e.MapSyms(func(name string) *expr.Expr {
			if expr.IsHeapName(name) {
				return expr.Sym(expr.RehashHeap(name, site))
			}
			return nil
		})
		// Only symbol nodes can be formal arguments: one symbol walk
		// substitutes the actuals without re-walking them.
		r = ctx.ResolveDeep(r.MapSyms(actual))
		memo[e.Key()] = r //dtaintlint:ignore sse-key-identity expr nodes are not interned; the key is their canonical identity
		return r
	}
}

// exportable reports whether a definition's destination survives the
// callee's frame: rooted at a formal argument, a heap object, tainted
// data, or an absolute memory address (a global — Section III-B: "in the
// absolute memory address, DTaint directly uses the memory to present
// variables, such as 0x670B0"). Stack-rooted and register-init-rooted
// definitions are locals.
func exportable(d *expr.Expr) bool {
	if isGlobalDeref(d) {
		return true
	}
	root := d.RootPointer()
	if root == nil {
		return false
	}
	name, ok := root.SymName()
	if !ok {
		return false
	}
	if _, isArg := expr.ArgIndex(name); isArg {
		return true
	}
	return expr.IsHeapName(name) || expr.IsTaintName(name)
}

// isGlobalDeref reports whether d is a memory access at an absolute
// (constant) address, possibly nested (deref(deref(0x670B0)+4)).
func isGlobalDeref(d *expr.Expr) bool {
	addr, ok := d.DerefAddr()
	if !ok {
		return false
	}
	if _, isConst := addr.ConstVal(); isConst {
		return true
	}
	base, _, ok := addr.BasePlusOffset()
	if !ok {
		return false
	}
	if _, isConst := base.ConstVal(); isConst {
		return true
	}
	if base.IsDeref() {
		return isGlobalDeref(base)
	}
	return false
}

// containsFrameLocal reports whether e mentions a symbol private to the
// callee's frame (its stack pointer, uninitialized registers, or opaque
// truncation symbols).
func containsFrameLocal(e *expr.Expr) bool {
	if e == nil {
		return false
	}
	return e.AnySym(func(s string) bool {
		return s == expr.StackSym || strings.HasPrefix(s, "init_") || strings.HasPrefix(s, "opaque_")
	})
}
