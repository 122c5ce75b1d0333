package bench

import (
	"context"
	"fmt"
	"io"

	"dtaint/internal/corpus"
	"dtaint/internal/diff"
	"dtaint/internal/fleet"
	"dtaint/internal/sumstore"
)

// DiffRecord is the differential-scanning measurement over a version
// pair: the full-rescan baseline, the prior (nightly) scan that warms
// the tiers, and the diff itself, with its cost attribution. SkipRate is
// the fraction of analysis units replayed instead of re-analyzed, and
// the -diff gate reads it; DeltaCostRatio is diff wall over full-rescan
// wall.
type DiffRecord struct {
	Binaries          int
	Mutated           int
	Workers           int
	FullRescanSeconds float64
	PriorScanSeconds  float64
	DiffSeconds       float64
	DeltaCostRatio    float64
	SkipRate          float64
	Replayed          int
	Reanalyzed        int
	SummaryHitRate    float64
	New               int
	Fixed             int
	Persisting        int
}

// Diff measures differential scanning over a version pair (a vendor
// re-release mutating a few binaries at function granularity). Three
// steps, all with the given worker count:
//
//   - full-rescan: the new image through a storeless fleet scan — the
//     cost a CI pipeline pays without differential scanning.
//   - prior-scan: the old image through a fresh report cache and summary
//     store — the nightly scan that precedes the release.
//   - diff: old→new through the warmed tiers. Unchanged binaries replay
//     from the report cache; the changed binaries' unchanged functions
//     replay from the summary store.
//
// The diff's shape is asserted against the generator's ground truth —
// exactly the mutated binaries plus the added one re-analyzed, and the
// new/fixed/persisting finding counts — so a regression is an error, not
// a number in a table. The headline numbers are the skip rate (fraction
// of analysis units replayed) and the delta-cost ratio (diff wall over
// full-rescan wall).
func Diff(w io.Writer, spec corpus.VersionPairSpec, workers int) (*DiffRecord, error) {
	fmt.Fprintln(w, "== Diff: differential re-scan of a vendor re-release ==")
	vp, err := corpus.BuildVersionPair(spec)
	if err != nil {
		return nil, err
	}
	spec = vp.Spec
	fmt.Fprintf(w, "(%d binaries, %d mutated, 1 added, 1 removed; %d workers)\n",
		spec.Binaries, spec.Mutated, workers)

	ctx := context.Background()

	// Full-rescan baseline: what scanning the new release from scratch
	// costs.
	full, err := fleet.ScanImage(ctx, vp.New, fleet.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("bench diff full-rescan: %w", err)
	}

	cache, err := fleet.NewCache(0, "")
	if err != nil {
		return nil, err
	}
	store, err := sumstore.NewStore(0, "")
	if err != nil {
		return nil, err
	}

	// Prior scan: the old version's nightly scan warms the tiers.
	prior, err := fleet.ScanImage(ctx, vp.Old, fleet.Options{
		Workers: workers, Cache: cache, SummaryStore: store,
	})
	if err != nil {
		return nil, fmt.Errorf("bench diff prior-scan: %w", err)
	}

	rep, err := diff.Diff(ctx, vp.Old, vp.New, diff.Options{
		Workers: workers, Cache: cache, SummaryStore: store,
	})
	if err != nil {
		return nil, fmt.Errorf("bench diff: %w", err)
	}

	// Ground-truth checks: the diff must touch exactly the delta and
	// classify the generator's planted findings.
	if want := spec.Mutated + 1; rep.Reanalyzed != want {
		return nil, fmt.Errorf("bench diff: re-analyzed %d binaries, ground truth says %d (mutated + added)",
			rep.Reanalyzed, want)
	}
	if rep.Failed != 0 {
		return nil, fmt.Errorf("bench diff: %d binary pairs failed", rep.Failed)
	}
	if rep.NewFindings != vp.NewVulns || rep.FixedFindings != vp.FixedVulns ||
		rep.PersistingFindings != vp.PersistingVulns {
		return nil, fmt.Errorf("bench diff: findings new/fixed/persisting = %d/%d/%d, ground truth %d/%d/%d",
			rep.NewFindings, rep.FixedFindings, rep.PersistingFindings,
			vp.NewVulns, vp.FixedVulns, vp.PersistingVulns)
	}

	rec := &DiffRecord{
		Binaries:          spec.Binaries,
		Mutated:           spec.Mutated,
		Workers:           workers,
		FullRescanSeconds: full.Wall.Seconds(),
		PriorScanSeconds:  prior.Wall.Seconds(),
		DiffSeconds:       rep.Wall.Seconds(),
		Replayed:          rep.Replayed,
		Reanalyzed:        rep.Reanalyzed,
		SummaryHitRate:    rep.SummaryHitRate,
		New:               rep.NewFindings,
		Fixed:             rep.FixedFindings,
		Persisting:        rep.PersistingFindings,
	}
	if units := rep.Replayed + rep.Reanalyzed; units > 0 {
		rec.SkipRate = float64(rep.Replayed) / float64(units)
	}
	if rec.FullRescanSeconds > 0 {
		rec.DeltaCostRatio = rec.DiffSeconds / rec.FullRescanSeconds
	}

	fmt.Fprintln(w, "Step         Wall(s)   Scanned/Reanalyzed  Replayed  SumHitRate")
	fmt.Fprintf(w, "full-rescan  %7.3f  %19d  %8s  %10s\n", rec.FullRescanSeconds, full.Scanned, "-", "-")
	fmt.Fprintf(w, "prior-scan   %7.3f  %19d  %8s  %10s\n", rec.PriorScanSeconds, prior.Scanned, "-", "-")
	fmt.Fprintf(w, "diff         %7.3f  %19d  %8d  %9.1f%%\n",
		rec.DiffSeconds, rec.Reanalyzed, rec.Replayed, 100*rec.SummaryHitRate)
	fmt.Fprintf(w, "skip rate: %.1f%%; delta-cost ratio: %.2f; findings %d new / %d fixed / %d persisting (= ground truth)\n\n",
		100*rec.SkipRate, rec.DeltaCostRatio, rec.New, rec.Fixed, rec.Persisting)
	return rec, nil
}
