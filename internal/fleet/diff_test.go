package fleet_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/diff"
	"dtaint/internal/fleet"
	"dtaint/internal/obs/events"
)

// A differential scan runs fleet's scan unit, stall watchdog included: a
// changed binary whose re-analysis hangs reports its pair with a
// watchdog error instead of blocking the diff, and every other pair
// completes normally.
func TestDiffStallWatchdog(t *testing.T) {
	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 3, Mutated: 1, SharedFuncs: 10, TailFuncs: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := fleet.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	// The prior scan warms the old side, so only new-version content is
	// analyzed during the diff — the mutated binary's hangs.
	if _, err := fleet.ScanImage(context.Background(), vp.Old, fleet.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	mutated := vp.MutatedPaths[0]
	fleet.HangAnalysis(t, mutated)

	j := events.NewJournal(0)
	debugDir := t.TempDir()
	rep, err := diff.Diff(context.Background(), vp.Old, vp.New, diff.Options{
		Workers:      1,
		Cache:        cache,
		StallTimeout: 200 * time.Millisecond,
		DebugDir:     debugDir,
		Analysis:     dataflow.Options{Events: j.Emitter("diff-stall")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Errorf("Failed = %d, want 1 (the stalled pair)", rep.Failed)
	}
	for _, b := range rep.Binaries {
		if b.Path != mutated {
			if b.Error != "" {
				t.Errorf("%s: error %q, want none", b.Path, b.Error)
			}
			continue
		}
		if !strings.Contains(b.Error, "watchdog") {
			t.Errorf("stalled pair error = %q, want a watchdog message", b.Error)
		}
		if b.OldSource != diff.SourceCache || b.NewSource != diff.SourceNone {
			t.Errorf("stalled pair sources = %s/%s, want cache/none", b.OldSource, b.NewSource)
		}
		if len(b.Findings) != 0 {
			t.Errorf("stalled pair classified %d findings, want none", len(b.Findings))
		}
	}

	evs, _ := j.Since(0)
	stalls := 0
	for _, ev := range evs {
		if ev.Type == events.TypeStall {
			stalls++
		}
	}
	if stalls != 1 {
		t.Errorf("journaled %d stall events, want 1", stalls)
	}
	bundles, _ := filepath.Glob(filepath.Join(debugDir, "stall-*", "goroutines.txt"))
	if len(bundles) != 1 {
		t.Fatalf("stall bundles = %v, want one", bundles)
	}
	if data, err := os.ReadFile(bundles[0]); err != nil || len(data) == 0 {
		t.Fatalf("bundle goroutine dump missing or empty: %v", err)
	}
}
