package bench

import (
	"strings"
	"testing"

	"dtaint/internal/corpus"
)

// The diff measurement's counters are exact, not statistical: the unit
// counts follow from the pair's shape, so the CI gate on the skip rate
// can use a fixed threshold.
func TestDiffMeasurement(t *testing.T) {
	spec := corpus.VersionPairSpec{Binaries: 3, Mutated: 1, SharedFuncs: 10, TailFuncs: 5, Seed: 3}
	var out strings.Builder
	rec, err := Diff(&out, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Units: 2 unchanged + 2 changed-pair sides + 1 added + 1 removed = 6;
	// the mutated binary's new version and the added binary are fresh.
	if rec.Reanalyzed != 2 {
		t.Fatalf("Reanalyzed = %d, want 2", rec.Reanalyzed)
	}
	if rec.Replayed != 4 {
		t.Fatalf("Replayed = %d, want 4", rec.Replayed)
	}
	if want := 4.0 / 6.0; rec.SkipRate < want-1e-9 || rec.SkipRate > want+1e-9 {
		t.Fatalf("SkipRate = %v, want %v", rec.SkipRate, want)
	}
	if rec.SummaryHitRate == 0 {
		t.Fatal("SummaryHitRate = 0: changed binary did not replay old summaries")
	}
	if !strings.Contains(out.String(), "skip rate:") {
		t.Fatalf("table output missing summary line:\n%s", out.String())
	}
}
