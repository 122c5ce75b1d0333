// Package sumstore is the persistent, content-addressed store for
// function summaries — the corpus-scale throughput lever: a firmware
// corpus links the same libc-shaped code into thousands of binaries, so
// whole-corpus analysis cost should be O(unique functions), not
// O(total functions).
//
// Two entry granularities are cached, matching the pipeline's two
// analysis passes:
//
//   - a phase-1 symexec.Summary per function (the static symbolic pass:
//     scratch tracker, no alias rewriting), keyed by the function's own
//     content only — phase 1 never consults callee summaries;
//   - a bottom-up Entry per call-graph SCC component (the summaries the
//     component exports after alias rewriting, plus the pending sinks,
//     findings, and counters its tracker shard produced), keyed by a
//     Merkle chain: the component's function digests plus the keys of
//     every callee component, so a change anywhere below a component
//     invalidates it transitively.
//
// Keys are derived by the Fingerprinter from the function's decoded
// instructions, the ISA, the string/function-table entries its
// immediates resolve to, its callsite bindings (including structsim
// resolutions), and the versioned analysis-options fingerprint
// (dataflow.OptionsFingerprint). See DESIGN.md §3.4 for the
// invalidation rules.
//
// Values travel in a versioned binary wire format (wire.go): a "DTSS"
// magic, a format version that unknown readers refuse, and a
// length-checked payload, so a corrupt or truncated entry decodes to a
// cache miss — never a crash or a wrong result.
//
// The store is a Tier (tier.go) — the same in-memory LRU over an
// optional on-disk tier that backs the fleet report cache — holding
// wire-encoded blobs in <key>.dtss files. All methods are safe for
// concurrent use.
package sumstore

import (
	"fmt"

	"dtaint/internal/obs"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// Entry is the bottom-up pass's cacheable unit: one SCC component's
// complete contribution. Caching only the summaries would not be enough
// — replaying a component must also reproduce the pending sinks its
// callers will import and the findings the merge concatenates, or a
// warm run would diverge from a cold one.
type Entry struct {
	// Summaries are the component's exported per-function summaries
	// (post alias rewriting), in the component's fixed function order.
	Summaries []*symexec.Summary
	// Pendings are the unresolved sinks climbing out of the component,
	// keyed by function name.
	Pendings map[string][]taint.PendingSink
	// Findings are the component shard's findings, in emission order.
	Findings []taint.Finding
	// DefPairs and Truncated are the component's counter contributions.
	DefPairs  int
	Truncated int
}

// Store is the two-tier summary store: a Tier plus the DTSS wire codec.
// The zero value is not usable; construct with NewStore.
type Store struct {
	tier *Tier
}

// NewStore returns a store holding at most maxEntries values in memory
// (maxEntries <= 0 selects a default of 4096 — summaries are far
// smaller than whole-binary reports, so the default tier is deeper than
// the report cache's). If dir is non-empty it is created if needed and
// used as the persistent tier.
func NewStore(maxEntries int, dir string) (*Store, error) {
	t, err := NewTier(maxEntries, 4096, dir, ".dtss")
	if err != nil {
		return nil, fmt.Errorf("sumstore: store dir: %w", err)
	}
	return &Store{tier: t}, nil
}

// GetSummary looks up a phase-1 function summary. Any decode failure —
// unknown wire version, corruption, truncation, or a key that resolves
// to a component entry — counts as a miss.
func (s *Store) GetSummary(key string) (*symexec.Summary, bool) {
	var sum *symexec.Summary
	ok := s.tier.Get(key, func(blob []byte) (err error) {
		sum, err = DecodeSummary(blob)
		return err
	})
	return sum, ok
}

// PutSummary stores a phase-1 function summary under key.
func (s *Store) PutSummary(key string, sum *symexec.Summary) {
	s.tier.Put(key, EncodeSummary(sum))
}

// GetEntry looks up a bottom-up component entry. Any decode failure
// counts as a miss.
func (s *Store) GetEntry(key string) (*Entry, bool) {
	var ent *Entry
	ok := s.tier.Get(key, func(blob []byte) (err error) {
		ent, err = DecodeEntry(blob)
		return err
	})
	return ent, ok
}

// PutEntry stores a bottom-up component entry under key.
func (s *Store) PutEntry(key string, e *Entry) {
	s.tier.Put(key, EncodeEntry(e))
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats { return s.tier.Stats() }

// PublishMetrics exports the store's lifetime counters into an obs
// registry as dtaint_sumstore_*.
func (s *Store) PublishMetrics(reg *obs.Registry) {
	s.Stats().Publish(reg, "dtaint_sumstore", "Summary-store")
}
