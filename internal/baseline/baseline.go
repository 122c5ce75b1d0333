// Package baseline implements the conventional top-down, worklist-based
// interprocedural data-dependence analysis that the paper compares DTaint
// against (Section V-B, Table VII; angr's DDG).
//
// The defining properties — and the source of its cost — are:
//
//   - Top-down traversal: roots of the call graph are analyzed first, and
//     every callee is re-analyzed at every callsite, in the caller's full
//     context (actual argument expressions and a snapshot of the caller's
//     memory state). The same callee is therefore analyzed many times
//     ("the different context-sensitive information needs to be passed to
//     callee through callsite chains, which causes the same callee to be
//     analyzed multiple times").
//   - Iterative worklist: each function-context is re-run until its
//     definition set converges (bounded by Iterations), repeatedly
//     rebuilding data flows for the same blocks.
//   - Per-variable dependence: every definition and use contributes edges
//     to a global def-use graph, regardless of relevance to taint.
//
// DTaint's bottom-up pass (package dataflow) analyzes every function
// exactly once; the wall-clock gap between the two on the same binaries
// reproduces Table VII's shape.
package baseline

import (
	"errors"
	"sort"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// Options tunes the baseline.
type Options struct {
	// MaxDepth bounds the callsite-chain recursion.
	MaxDepth int
	// Iterations is the worklist repetition count per function context.
	Iterations int
	// MaxAnalyses is a safety cap on total function analyses.
	MaxAnalyses int
	// Symexec tunes the underlying engine. The baseline defaults are
	// heavier than DTaint's (loops unrolled, more states per block),
	// mirroring angr's more exhaustive state exploration. Its Table is
	// replaced by one table for the whole run: the recursive analyses
	// pass expressions and memory snapshots to each other.
	Symexec symexec.Options
	// Filter restricts the analyzed functions (same semantics as
	// dataflow.Options.Filter).
	Filter func(name string) bool
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.Iterations <= 0 {
		o.Iterations = 2
	}
	if o.MaxAnalyses <= 0 {
		o.MaxAnalyses = 200_000
	}
	if o.Symexec.MaxStatesPerBlock == 0 {
		o.Symexec.MaxStatesPerBlock = 8
	}
	if o.Symexec.MaxLoopIters == 0 {
		o.Symexec.MaxLoopIters = 2
	}
	// LoopOnce false: the baseline unrolls loops up to MaxLoopIters.
	return o
}

// Result reports the baseline run.
type Result struct {
	// Analyses is the total number of per-function analyses performed —
	// with context-sensitive re-analysis this greatly exceeds the number
	// of functions.
	Analyses int
	// Findings are the taint findings the baseline discovered.
	Findings []taint.Finding
	// SSATime is the per-function symbolic-analysis phase.
	SSATime time.Duration
	// DDGTime is the interprocedural dependence-graph phase.
	DDGTime time.Duration
	// Capped reports that MaxAnalyses stopped the traversal early.
	Capped bool
}

// ErrNoProgram is returned for an empty program.
var ErrNoProgram = errors.New("baseline: empty program")

// Analyze runs the top-down baseline over the program.
func Analyze(prog *cfg.Program, opts Options) (*Result, error) {
	if prog == nil || len(prog.Funcs) == 0 {
		return nil, ErrNoProgram
	}
	opts = opts.withDefaults()
	if opts.Symexec.Prototypes == nil {
		opts.Symexec.Prototypes = taint.PrototypesFor(nil)
	}
	opts.Symexec.Table = new(expr.Table)
	names := make([]string, 0, len(prog.Funcs))
	inSet := make(map[string]bool, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		if opts.Filter == nil || opts.Filter(fn.Name) {
			names = append(names, fn.Name)
			inSet[fn.Name] = true
		}
	}
	if len(names) == 0 {
		return nil, ErrNoProgram
	}
	sort.Strings(names)

	res := &Result{}

	// Phase 1: per-function symbolic states, angr-style (loops unrolled).
	t0 := time.Now()
	scratch := taint.NewTracker()
	scratch.SetBinary(prog.Binary)
	for _, name := range names {
		scratch.BeginFunction(name)
		symexec.Analyze(prog.ByName[name], prog.Binary, scratch, opts.Symexec)
	}
	res.SSATime = time.Since(t0)

	// Phase 2: top-down context-sensitive dependence construction from
	// the call-graph roots.
	t1 := time.Now()
	tr := taint.NewTracker()
	tr.SetBinary(prog.Binary)
	e := &engine{prog: prog, opts: opts, res: res, inSet: inSet, tracker: tr}
	roots := rootFunctions(prog, names)
	for _, root := range roots {
		e.tracker.BeginFunction(root)
		sum := e.analyzeContext(root, nil, nil, 0)
		if sum != nil {
			fs, _ := e.tracker.EndFunction(sum)
			res.Findings = append(res.Findings, fs...)
		}
	}
	res.DDGTime = time.Since(t1)
	return res, nil
}

// rootFunctions returns functions without callers inside the set; if the
// whole set is cyclic, every function is a root.
func rootFunctions(prog *cfg.Program, names []string) []string {
	var roots []string
	for _, n := range names {
		hasCaller := false
		for _, c := range prog.Callers[n] {
			if c != n {
				hasCaller = true
				break
			}
		}
		if !hasCaller {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return names
	}
	return roots
}

type engine struct {
	prog    *cfg.Program
	opts    Options
	res     *Result
	inSet   map[string]bool
	tracker *taint.Tracker
}

// analyzeContext analyzes fn in a specific calling context, recursing into
// callees at every callsite. Iterations > 1 re-runs the analysis, the
// worklist behavior that rebuilds flows for the same blocks.
func (e *engine) analyzeContext(fn string, args []*expr.Expr, mem map[*expr.Expr]*expr.Expr, depth int) *symexec.Summary {
	if depth >= e.opts.MaxDepth {
		return nil
	}
	f := e.prog.ByName[fn]
	if f == nil {
		return nil
	}
	so := e.opts.Symexec
	so.InitialArgs = args
	so.InitialMem = mem

	var sum *symexec.Summary
	for i := 0; i < e.opts.Iterations; i++ {
		if e.res.Analyses >= e.opts.MaxAnalyses {
			e.res.Capped = true
			return sum
		}
		e.res.Analyses++
		oracle := &recursiveOracle{e: e, depth: depth}
		sum = symexec.Analyze(f, e.prog.Binary, oracle, so)
	}
	return sum
}

// recursiveOracle descends into local callees at every callsite with the
// live caller context; imports go to the taint library models.
type recursiveOracle struct {
	e     *engine
	depth int
}

var _ symexec.Oracle = (*recursiveOracle)(nil)

// Call implements symexec.Oracle.
func (o *recursiveOracle) Call(ctx *symexec.CallContext) symexec.CallEffect {
	if ctx.Kind == cfg.CallImport || ctx.Kind == cfg.CallUnknown {
		return o.e.tracker.Call(ctx)
	}
	if !o.e.inSet[ctx.Callee] {
		return symexec.CallEffect{}
	}
	if o.e.res.Analyses >= o.e.opts.MaxAnalyses {
		o.e.res.Capped = true
		return symexec.CallEffect{}
	}
	o.e.tracker.PushFrame(ctx.Callee)
	sum := o.e.analyzeContext(ctx.Callee, ctx.Args, ctx.MemSnapshot(), o.depth+1)
	if sum == nil {
		// Depth or analysis cap: unwind the frame without observations.
		o.e.tracker.PopFrame(&symexec.Summary{Func: ctx.Callee})
		return symexec.CallEffect{}
	}
	o.e.res.Findings = append(o.e.res.Findings, o.e.tracker.PopFrame(sum)...)

	// Apply the callee's definitions back into the caller state. In a
	// context-sensitive analysis no substitution is needed: the callee ran
	// over the caller's actual expressions.
	eff := symexec.CallEffect{Handled: true}
	switch {
	case len(sum.Rets) == 1:
		eff.Ret = sum.Rets[0]
	case len(sum.Rets) >= 2 && len(sum.Rets) <= 4:
		var combined *expr.Expr
		for _, r := range sum.Rets {
			if r == nil {
				continue
			}
			if combined == nil {
				combined = r
			} else if !combined.Equal(r) {
				combined = ctx.Table().Bin(expr.OpOr, combined, r)
			}
		}
		eff.Ret = combined
	}
	for _, dp := range sum.DefPairs {
		addr, ok := dp.D.DerefAddr()
		if !ok {
			continue
		}
		eff.MemDefs = append(eff.MemDefs, symexec.MemDef{Addr: addr, Val: dp.U})
	}
	return eff
}
