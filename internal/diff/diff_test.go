package diff

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/obs"
	"dtaint/internal/sumstore"
)

var testSpec = corpus.VersionPairSpec{
	Binaries: 3, Mutated: 1, SharedFuncs: 10, TailFuncs: 5, Seed: 3,
}

func buildPair(t *testing.T) *corpus.VersionPair {
	t.Helper()
	vp, err := corpus.BuildVersionPair(testSpec)
	if err != nil {
		t.Fatalf("BuildVersionPair: %v", err)
	}
	return vp
}

func newCache(t *testing.T) *fleet.Cache {
	t.Helper()
	c, err := fleet.NewCache(256, "")
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	return c
}

func newStore(t *testing.T) *sumstore.Store {
	t.Helper()
	s, err := sumstore.NewStore(4096, "")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

// TestDiffIdenticalImages is the fast path of the acceptance criteria:
// diffing an image against itself after a prior scan reports zero new
// and fixed findings and performs zero re-analyses — every pair resolves
// by hash comparison plus cache replay.
func TestDiffIdenticalImages(t *testing.T) {
	vp := buildPair(t)
	cache := newCache(t)

	// A prior nightly scan warms the report cache with the same keys the
	// diff uses.
	prior, err := fleet.ScanImage(context.Background(), vp.Old, fleet.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("ScanImage: %v", err)
	}
	rep, err := Diff(context.Background(), vp.Old, vp.Old, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if rep.Reanalyzed != 0 {
		t.Errorf("Reanalyzed = %d, want 0 (identical images, warm cache)", rep.Reanalyzed)
	}
	if rep.Replayed == 0 || rep.Replayed != rep.Unchanged {
		t.Errorf("Replayed = %d, Unchanged = %d; want equal and nonzero", rep.Replayed, rep.Unchanged)
	}
	if rep.NewFindings != 0 || rep.FixedFindings != 0 {
		t.Errorf("findings new=%d fixed=%d, want 0/0", rep.NewFindings, rep.FixedFindings)
	}
	if rep.Changed != 0 || rep.Added != 0 || rep.Removed != 0 || rep.Moved != 0 {
		t.Errorf("pairing = %d changed / %d added / %d removed / %d moved, want all 0",
			rep.Changed, rep.Added, rep.Removed, rep.Moved)
	}
	if rep.PersistingFindings != prior.Vulnerabilities {
		t.Errorf("PersistingFindings = %d, want the image's %d vulnerabilities",
			rep.PersistingFindings, prior.Vulnerabilities)
	}
	for _, b := range rep.Binaries {
		if b.Status != PairUnchanged || b.OldSource != SourceCache || b.NewSource != SourceCache {
			t.Errorf("%s: status=%s sources=%s/%s, want unchanged cache/cache",
				b.Path, b.Status, b.OldSource, b.NewSource)
		}
	}
}

// TestDiffVersionPair is the incremental-mode acceptance criterion: with
// one mutated binary, only it (plus the added binary) is re-analyzed,
// unchanged functions inside it replay from the summary store, and
// findings classify as new/fixed/persisting per the generator's ground
// truth — including the renamed module's finding persisting across the
// rename.
func TestDiffVersionPair(t *testing.T) {
	vp := buildPair(t)
	cache := newCache(t)
	store := newStore(t)

	if _, err := fleet.ScanImage(context.Background(), vp.Old, fleet.Options{
		Workers: 2, Cache: cache, SummaryStore: store,
	}); err != nil {
		t.Fatalf("ScanImage: %v", err)
	}
	rep, err := Diff(context.Background(), vp.Old, vp.New, Options{
		Workers: 2, Cache: cache, SummaryStore: store,
	})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}

	// Only the mutated binary's new version and the added binary need
	// fresh analysis; everything else replays.
	if want := testSpec.Mutated + 1; rep.Reanalyzed != want {
		t.Errorf("Reanalyzed = %d, want %d", rep.Reanalyzed, want)
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d: %+v", rep.Failed, rep.Binaries)
	}
	if rep.Unchanged != testSpec.Binaries-testSpec.Mutated ||
		rep.Changed != testSpec.Mutated || rep.Added != 1 || rep.Removed != 1 {
		t.Errorf("pairing = %d/%d/%d/%d (unchanged/changed/added/removed)",
			rep.Unchanged, rep.Changed, rep.Added, rep.Removed)
	}
	if rep.NewFindings != vp.NewVulns || rep.FixedFindings != vp.FixedVulns ||
		rep.PersistingFindings != vp.PersistingVulns {
		t.Errorf("findings new/fixed/persisting = %d/%d/%d, want %d/%d/%d",
			rep.NewFindings, rep.FixedFindings, rep.PersistingFindings,
			vp.NewVulns, vp.FixedVulns, vp.PersistingVulns)
	}

	var changed *BinaryDiff
	for i := range rep.Binaries {
		if rep.Binaries[i].Status == PairChanged {
			changed = &rep.Binaries[i]
		}
	}
	if changed == nil {
		t.Fatal("no changed pair in report")
	}
	if changed.Path != vp.MutatedPaths[0] {
		t.Errorf("changed pair is %s, want %s", changed.Path, vp.MutatedPaths[0])
	}
	if changed.OldSource != SourceCache || changed.NewSource != SourceFresh {
		t.Errorf("changed sources = %s/%s, want cache/fresh", changed.OldSource, changed.NewSource)
	}
	// The stable module (planted functions + shared filler) replays from
	// summaries the old-image scan wrote.
	total := changed.SummaryHits + changed.SummaryMisses
	if changed.SummaryHits == 0 || total == 0 {
		t.Fatalf("summary hits/misses = %d/%d, want hits > 0", changed.SummaryHits, changed.SummaryMisses)
	}
	if rate := float64(changed.SummaryHits) / float64(total); rate < 0.5 {
		t.Errorf("summary hit rate = %.2f (%d/%d), want >= 0.5", rate, changed.SummaryHits, total)
	}
	if rep.SummaryHitRate == 0 {
		t.Error("report SummaryHitRate = 0, want > 0")
	}
	// The renamed module pairs exactly despite the rename, and its
	// finding persists with the old name recorded.
	if changed.FuncsRenamed == 0 {
		t.Errorf("FuncsRenamed = 0, want > 0 (renamed module)")
	}
	byStatus := map[FindingStatus][]FindingDiff{}
	for _, fd := range changed.Findings {
		byStatus[fd.Status] = append(byStatus[fd.Status], fd)
	}
	if len(byStatus[FindingNew]) != 1 || len(byStatus[FindingFixed]) != 1 || len(byStatus[FindingPersisting]) != 2 {
		t.Fatalf("changed pair findings new/fixed/persisting = %d/%d/%d, want 1/1/2: %+v",
			len(byStatus[FindingNew]), len(byStatus[FindingFixed]), len(byStatus[FindingPersisting]), changed.Findings)
	}
	renamed := false
	for _, fd := range byStatus[FindingPersisting] {
		if fd.OldFunc != "" {
			renamed = true
			if !strings.HasPrefix(fd.OldFunc, "b00r1") || !strings.HasPrefix(fd.Finding.SinkFunc, "b00r2") {
				t.Errorf("renamed persisting finding maps %s -> %s", fd.OldFunc, fd.Finding.SinkFunc)
			}
		}
	}
	if !renamed {
		t.Error("no persisting finding recorded a rename (OldFunc empty on all)")
	}
	// Duration times this run's fresh analyses only: cache-replayed pairs
	// report zero, so a per-pair latency sample over Duration > 0 sees
	// exactly the re-analyzed pairs.
	for _, b := range rep.Binaries {
		fresh := b.OldSource == SourceFresh || b.NewSource == SourceFresh
		if fresh && b.Duration <= 0 {
			t.Errorf("%s: re-analyzed pair has Duration %v, want > 0", b.Path, b.Duration)
		}
		if !fresh && b.Duration != 0 {
			t.Errorf("%s: cache-replayed pair has Duration %v, want 0", b.Path, b.Duration)
		}
	}
	// Added/removed binaries classify wholesale.
	for _, b := range rep.Binaries {
		switch b.Status {
		case PairAdded:
			if b.New == 0 || b.Fixed != 0 || b.Persisting != 0 {
				t.Errorf("added %s findings = %d/%d/%d", b.Path, b.New, b.Fixed, b.Persisting)
			}
		case PairRemoved:
			if b.Fixed == 0 || b.New != 0 || b.Persisting != 0 {
				t.Errorf("removed %s findings = %d/%d/%d", b.Path, b.New, b.Fixed, b.Persisting)
			}
		}
	}
}

// TestDiffDeterminism is the determinism contract: the report's semantic
// signature is identical for workers 1 and 8 and with the summary store
// on or off, and the full normalized report matches across worker counts
// for a fixed store configuration.
func TestDiffDeterminism(t *testing.T) {
	vp := buildPair(t)
	run := func(workers int, withStore bool) *Report {
		opts := Options{Workers: workers}
		if withStore {
			opts.SummaryStore = newStore(t)
		}
		rep, err := Diff(context.Background(), vp.Old, vp.New, opts)
		if err != nil {
			t.Fatalf("Diff(workers=%d store=%v): %v", workers, withStore, err)
		}
		return rep
	}
	base := run(1, false)
	configs := []struct {
		workers   int
		withStore bool
	}{{8, false}, {1, true}, {8, true}}
	for _, c := range configs {
		rep := run(c.workers, c.withStore)
		if rep.Signature() != base.Signature() {
			t.Errorf("signature mismatch at workers=%d store=%v", c.workers, c.withStore)
		}
	}
	// Full-report comparison (cost fields normalized) across worker
	// counts at a fixed store configuration.
	w8 := run(8, false)
	normalize := func(r *Report) *Report {
		c := *r
		c.Wall = 0
		c.Workers = 0
		c.Binaries = append([]BinaryDiff(nil), r.Binaries...)
		for i := range c.Binaries {
			c.Binaries[i].Duration = 0
		}
		return &c
	}
	if !reflect.DeepEqual(normalize(base), normalize(w8)) {
		t.Errorf("normalized reports differ between workers 1 and 8")
	}
}

// TestReportJSONRoundTrip: the wire form reproduces the report exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	vp := buildPair(t)
	rep, err := Diff(context.Background(), vp.Old, vp.New, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("round trip mismatch")
	}
	if back.Signature() != rep.Signature() {
		t.Errorf("signature changed across round trip")
	}
}

// TestDiffMovedBinary: identical bytes at a new rootfs path pair as
// moved, findings persisting, no re-analysis of the moved binary beyond
// its single shared unit.
func TestDiffMovedBinary(t *testing.T) {
	vp := buildPair(t)
	movedFrom := vp.UnchangedPaths[0]
	movedTo := "/usr/local/sbin/relocated"
	newImg := renamePath(t, vp.New, movedFrom, movedTo)

	rep, err := Diff(context.Background(), vp.Old, newImg, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if rep.Moved != 1 {
		t.Fatalf("Moved = %d, want 1", rep.Moved)
	}
	for _, b := range rep.Binaries {
		if b.Status != PairMoved {
			continue
		}
		if b.Path != movedTo || b.OldPath != movedFrom {
			t.Errorf("moved pair = %s (from %s), want %s (from %s)", b.Path, b.OldPath, movedTo, movedFrom)
		}
		if b.New != 0 || b.Fixed != 0 || b.Persisting == 0 {
			t.Errorf("moved pair findings = %d/%d/%d, want persisting only", b.New, b.Fixed, b.Persisting)
		}
	}
}

// renamePath rewrites one rootfs path inside a packed FWIMG container.
func renamePath(t *testing.T, img []byte, from, to string) []byte {
	t.Helper()
	parsed, fs, err := firmware.Unpack(img)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	nfs := &firmware.FS{}
	for _, f := range fs.Files {
		if f.Path == from {
			f.Path = to
		}
		if err := nfs.Add(f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	payload, err := firmware.MarshalFS(nfs)
	if err != nil {
		t.Fatalf("MarshalFS: %v", err)
	}
	for i := range parsed.Parts {
		if parsed.Parts[i].Type == firmware.PartRootFS {
			parsed.Parts[i].Data = payload
		}
	}
	out, err := firmware.Pack(parsed)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return out
}

// TestPairingReadsScanSummaries: function pairing takes its layouts from
// the phase-1 summaries the scans already stored, so after a scan of the
// old image a diff executes no function beyond what its analysis units
// execute, and the pairing is the one built without a store.
func TestPairingReadsScanSummaries(t *testing.T) {
	vp := buildPair(t)
	ctx := context.Background()
	scannedStore := func() *sumstore.Store {
		s := newStore(t)
		if _, err := fleet.ScanImage(ctx, vp.Old, fleet.Options{Workers: 1, SummaryStore: s}); err != nil {
			t.Fatalf("ScanImage: %v", err)
		}
		return s
	}
	ssaCount := func(reg *obs.Registry) uint64 {
		for _, s := range reg.Snapshot() {
			if s.Name == "dtaint_fn_ssa_seconds" {
				return s.Count
			}
		}
		return 0
	}

	// The analysis units alone: scanning the new image over the same warm
	// store analyzes exactly the binaries the diff re-analyzes, and
	// replays the rest.
	ref, refReg := scannedStore(), obs.NewRegistry()
	m0 := ref.Stats().Misses
	if _, err := fleet.ScanImage(ctx, vp.New, fleet.Options{Workers: 1, SummaryStore: ref,
		Analysis: dataflow.Options{Metrics: refReg}}); err != nil {
		t.Fatalf("ScanImage: %v", err)
	}
	unitMisses, unitSSA := ref.Stats().Misses-m0, ssaCount(refReg)
	if unitMisses == 0 || unitSSA == 0 {
		t.Fatalf("new-image scan: %d store misses, %d executions; want both > 0", unitMisses, unitSSA)
	}

	store, reg := scannedStore(), obs.NewRegistry()
	m0 = store.Stats().Misses
	opts := Options{Workers: 1, SummaryStore: store, Analysis: dataflow.Options{Metrics: reg}}
	rep, err := Diff(ctx, vp.Old, vp.New, opts)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if rep.Changed == 0 {
		t.Fatal("no changed pair: pairing never ran")
	}
	if got := store.Stats().Misses - m0; got != unitMisses {
		t.Errorf("diff made %d store misses, its analysis units alone %d", got, unitMisses)
	}
	if got := ssaCount(reg); got != unitSSA {
		t.Errorf("diff executed %d functions in phase 1, its analysis units alone %d", got, unitSSA)
	}

	// The same pairing, with and without the store behind it.
	oldProg, newProg := pairPrograms(t)
	if err := opts.Prepare(); err != nil {
		t.Fatal(err)
	}
	s0 := store.Stats()
	stored := PairFunctions(oldProg, newProg, opts.Analysis)
	s1 := store.Stats()
	// Every function left over after the exact stage reads its layouts
	// from the store.
	leftover := len(oldProg.Funcs) + len(newProg.Funcs) - 2*stored.Exact
	if s1.Misses != s0.Misses || int(s1.Hits-s0.Hits) != leftover {
		t.Errorf("pairing: %d store hits and %d misses, want %d and 0",
			s1.Hits-s0.Hits, s1.Misses-s0.Misses, leftover)
	}
	if stored.Similar == 0 {
		t.Fatal("no similarity pairs: the layout stage never decided a pair")
	}
	if plain := PairFunctions(oldProg, newProg, dataflow.Options{}); !reflect.DeepEqual(stored, plain) {
		t.Errorf("pairing with the store %+v, without %+v", stored, plain)
	}
}
