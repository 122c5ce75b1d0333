package dataflow

import (
	"fmt"
	"strings"

	"dtaint/internal/taint"
)

// OptionsFingerprint canonicalizes the semantically relevant analyzer
// options into a stable, versioned string. It is the options half of
// every content-addressed cache key in the pipeline: the fleet report
// cache appends it to the binary digest, and the summary store appends
// it to per-function and per-component digests. Bump the leading
// version tag whenever the analysis semantics change in a way the
// option values cannot express — that invalidates every cached report
// and summary at once.
//
// Parallelism is deliberately excluded: the analyzer produces
// bit-identical results for every worker count, so cached entries are
// shareable across differently parallel runs. Observability handles,
// the expression table (Symexec.Table) and the summary store itself are
// likewise excluded — they never influence results. A non-nil function filter cannot be hashed; callers that key
// whole-binary reports must supply a filterTag naming it (the fleet
// orchestrator bypasses its cache for a non-nil filter with an empty
// tag). The summary store passes an empty tag instead: a filter only
// selects which functions and call-graph components exist, and both are
// already captured structurally by the per-function and per-component
// digests.
func OptionsFingerprint(o Options, filterTag string) string {
	var b strings.Builder
	// v4: SSE alias classes landed (alias.RewriteSSE + SSE-driven
	// indirect-call resolution), changing rewritten definition pairs and
	// resolutions for identical inputs — v3 caches must all miss.
	fmt.Fprintf(&b, "v4;alias=%t;sse=%t;structsim=%t;vrange=%t",
		!o.DisableAlias, !o.DisableSSE, !o.DisableStructSim, !o.DisableVRange)
	// The vocabulary defines what the analysis looks for; its content
	// digest isolates caches per vocabulary (the default's digest keeps
	// default-vocab runs shareable across releases with the same spec).
	vb := o.Vocab
	if vb == nil {
		vb = taint.DefaultVocabulary()
	}
	fmt.Fprintf(&b, ";vocab=%s", vb.Fingerprint())
	fmt.Fprintf(&b, ";loopOnce=%t;loopIters=%d", o.Symexec.LoopOnce, o.Symexec.MaxLoopIters)
	fmt.Fprintf(&b, ";statesBlock=%d;statesFunc=%d", o.Symexec.MaxStatesPerBlock, o.Symexec.MaxStatesPerFunc)
	fmt.Fprintf(&b, ";filter=%s", filterTag)
	return b.String()
}
