package dtaint_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"dtaint"
	"dtaint/internal/corpus"
	"dtaint/internal/taint"
)

func vulnKeys(findings []dtaint.Finding) []string {
	var keys []string
	for _, f := range findings {
		keys = append(keys, taint.VulnKey(f.SinkFunc, f.Sink, f.SinkAddr, string(f.Class)))
	}
	sort.Strings(keys)
	return keys
}

// TestScanFirmwareFleetMatchesAnalyzeFirmware is the end-to-end
// equivalence guarantee: the fleet orchestrator's per-binary report is
// exactly what a single-binary AnalyzeFirmware run produces — every
// counter and every finding field, paths and evidence included — with
// only timings and the runtime snapshot allowed to differ.
func TestScanFirmwareFleetMatchesAnalyzeFirmware(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// A fleet scan defaults per-binary parallelism to 1; pinning it makes
	// DDGWorkers comparable with the single-binary run.
	a := dtaint.New(dtaint.WithParallelism(1))
	img, err := a.ScanFirmwareFleet(context.Background(), fw)
	if err != nil {
		t.Fatal(err)
	}
	if img.Product != "DIR-645" || img.Vendor == "" {
		t.Fatalf("image identity = %s %s, want D-Link DIR-645", img.Vendor, img.Product)
	}
	if img.Candidates != 1 || img.Scanned != 1 || img.Failed != 0 {
		t.Fatalf("candidates/scanned/failed = %d/%d/%d, want 1/1/0",
			img.Candidates, img.Scanned, img.Failed)
	}
	single, err := a.AnalyzeFirmware(fw, img.Binaries[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	fleetRep := img.Binaries[0].Analysis
	if fleetRep == nil {
		t.Fatal("fleet scan returned no per-binary report")
	}
	got := vulnKeys(fleetRep.Vulnerabilities())
	want := vulnKeys(single.Vulnerabilities())
	if len(want) == 0 {
		t.Fatal("study image produced no vulnerabilities")
	}
	if len(got) != len(want) {
		t.Fatalf("fleet found %d vulnerabilities, single-binary run found %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("vuln key mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}
	if img.Vulnerabilities != len(want) || img.VulnerablePaths != len(single.VulnerablePaths()) {
		t.Fatalf("image totals %d/%d, want %d/%d", img.Vulnerabilities, img.VulnerablePaths,
			len(want), len(single.VulnerablePaths()))
	}

	untimed := func(r *dtaint.Report) dtaint.Report {
		c := *r
		c.SSATime, c.DDGTime, c.Runtime = 0, 0, nil
		return c
	}
	if got, want := untimed(fleetRep), untimed(single); !reflect.DeepEqual(got, want) {
		t.Errorf("fleet report differs from AnalyzeFirmware:\nfleet:  %+v\nsingle: %+v", got, want)
	}
	evidence := 0
	for _, f := range single.Findings {
		evidence += len(f.Evidence)
	}
	if evidence == 0 {
		t.Error("single-binary findings carry no evidence; the comparison would not cover it")
	}
}

func TestScanFirmwareFleetCache(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DGN1000", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dtaint.NewFleetCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New()
	first, err := a.ScanFirmwareFleet(context.Background(), fw, dtaint.WithFleetCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached != 0 || first.Scanned != 1 {
		t.Fatalf("first scan cached/scanned = %d/%d, want 0/1", first.Cached, first.Scanned)
	}
	second, err := a.ScanFirmwareFleet(context.Background(), fw, dtaint.WithFleetCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != 1 || second.Scanned != 0 {
		t.Fatalf("second scan cached/scanned = %d/%d, want 1/0", second.Cached, second.Scanned)
	}
	if second.Cache.Hits == 0 {
		t.Fatal("second scan reported no cache hits")
	}
	if second.Vulnerabilities != first.Vulnerabilities {
		t.Fatalf("cached scan changed totals: %d vs %d", second.Vulnerabilities, first.Vulnerabilities)
	}
	if st := cache.Stats(); st.Entries == 0 || st.Hits == 0 {
		t.Fatalf("cache stats empty: %+v", st)
	}
}

func TestScanFirmwareFleetProgressAndPathFilter(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var last, total int
	img, err := dtaint.New().ScanFirmwareFleet(context.Background(), fw,
		dtaint.WithFleetWorkers(2),
		dtaint.WithFleetProgress(func(d, t int) { last, total = d, t }))
	if err != nil {
		t.Fatal(err)
	}
	if last != img.Candidates || total != img.Candidates {
		t.Fatalf("progress ended at %d/%d, want %d/%d", last, total, img.Candidates, img.Candidates)
	}
	none, err := dtaint.New().ScanFirmwareFleet(context.Background(), fw,
		dtaint.WithFleetPathFilter(func(string) bool { return false }))
	if err != nil {
		t.Fatal(err)
	}
	if none.Candidates != 0 || len(none.Binaries) != 0 {
		t.Fatalf("path filter ignored: %d candidates", none.Candidates)
	}
}

// TestScanFirmwareCorpus exercises the corpus entry point over an
// overlap corpus: duplicate binaries collapse onto the report cache and
// shared-module functions collapse onto the summary store.
func TestScanFirmwareCorpus(t *testing.T) {
	c, err := corpus.BuildOverlapCorpus(corpus.OverlapSpec{
		Images: 4, Variants: 2, SharedFuncs: 10, UniqueFuncs: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := dtaint.NewSummaryStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New()
	rep, err := a.ScanFirmwareCorpus(context.Background(), c.Images,
		dtaint.WithFleetSummaryStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Images) != 4 {
		t.Fatalf("got %d image reports", len(rep.Images))
	}
	if rep.UniqueBinaries != 2 || rep.DuplicateBinaries != 2 {
		t.Fatalf("unique/duplicate = %d/%d, want 2/2", rep.UniqueBinaries, rep.DuplicateBinaries)
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("duplicate images produced no report-cache hits")
	}
	// Variant 1 shares its module with variant 0, so its analysis must
	// hit the summary store even though its binary is new.
	if rep.SummaryStore.Hits == 0 || rep.SummaryStore.Misses == 0 {
		t.Fatalf("summary store hits/misses = %d/%d, want both > 0",
			rep.SummaryStore.Hits, rep.SummaryStore.Misses)
	}
	for i, ir := range rep.Images {
		if ir.Vulnerabilities != rep.Images[0].Vulnerabilities {
			t.Fatalf("image %d vulnerabilities %d != image 0's %d",
				i, ir.Vulnerabilities, rep.Images[0].Vulnerabilities)
		}
	}
}

// TestWithSummaryStoreSingleBinary checks the single-binary Analyzer
// surface: a second analysis of the same bytes through the same store
// replays without re-executing, with identical findings.
func TestWithSummaryStoreSingleBinary(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dtaint.NewSummaryStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	plain := dtaint.New()
	want, err := plain.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(dtaint.WithSummaryStore(store))
	first, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold run should populate the store: %+v", st)
	}
	second, err := a.AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().Hits - st.Hits; hits == 0 {
		t.Fatal("warm run had no store hits")
	}
	w := vulnKeys(want.Findings)
	for run, rep := range map[string]*dtaint.Report{"cold": first, "warm": second} {
		got := vulnKeys(rep.Findings)
		if len(got) != len(w) {
			t.Fatalf("%s run: %d findings, store-off baseline has %d", run, len(got), len(w))
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("%s run finding %d = %s, want %s", run, i, got[i], w[i])
			}
		}
	}
}
