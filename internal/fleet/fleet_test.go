package fleet

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtaint/internal/asm"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/obs"
	"dtaint/internal/taint"
)

// vulnSrc is a minimal vulnerable program: recv fills a buffer that
// strcpy copies without a bound.
const vulnSrc = `
.arch arm
.import recv
.import strcpy

.func handler
  SUB SP, SP, #0x120
  MOV R0, #0
  ADD R1, SP, #0x20
  MOV R2, #0x100
  BL recv
  ADD R1, SP, #0x20
  ADD R0, SP, #0x8
  BL strcpy
  BX LR
.endfunc
`

// cleanSrc has no taint path at all.
const cleanSrc = `
.arch arm
.import memset

.func tidy
  SUB SP, SP, #0x40
  ADD R0, SP, #0x10
  MOV R1, #0
  MOV R2, #0x20
  BL memset
  BX LR
.endfunc
`

func mustAssemble(t *testing.T, name, src string) []byte {
	t.Helper()
	bin, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// testImage packs a firmware container whose rootfs holds the given
// executables plus non-FWELF noise files.
func testImage(t *testing.T, bins map[string][]byte) []byte {
	t.Helper()
	fs := &firmware.FS{}
	files := map[string][]byte{
		"/bin/busybox": []byte("busybox-stub"),
		"/etc/passwd":  []byte("root::0:0::/:/bin/sh\n"),
	}
	for path, data := range bins {
		files[path] = data
	}
	for path, data := range files {
		if err := fs.Add(firmware.File{Path: path, Mode: 0o755, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := firmware.MarshalFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	img := &firmware.Image{
		Header: firmware.Header{Vendor: "TestCo", Product: "TC-1", Version: "1.0", Year: 2016},
		Parts: []firmware.Part{
			{Type: firmware.PartKernel, Data: []byte("kernel-stub")},
			{Type: firmware.PartRootFS, Data: payload},
		},
	}
	data, err := firmware.Pack(img)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func twoBinaryImage(t *testing.T) []byte {
	t.Helper()
	vuln := mustAssemble(t, "webd", vulnSrc)
	clean := mustAssemble(t, "tidyd", cleanSrc)
	return testImage(t, map[string][]byte{
		"/usr/sbin/webd":  vuln,
		"/usr/sbin/webd2": vuln, // same bytes at a second path: cache fodder
		"/usr/bin/tidyd":  clean,
	})
}

// normalize zeroes every timing field so reports from differently
// parallel (or differently fast) runs compare equal.
func normalize(r *ImageReport) *ImageReport {
	c := *r
	c.Wall = 0
	c.Workers = 0
	c.Cache = CacheStats{}
	c.Runtime = obs.RuntimeStats{}
	c.Binaries = append([]BinaryScan(nil), r.Binaries...)
	for i := range c.Binaries {
		c.Binaries[i].Duration = 0
		if a := c.Binaries[i].Analysis; a != nil {
			ac := *a
			ac.SSATime = 0
			ac.DDGTime = 0
			c.Binaries[i].Analysis = &ac
		}
	}
	return &c
}

func TestScanImageFindsVulnerabilities(t *testing.T) {
	rep, err := ScanImage(context.Background(), twoBinaryImage(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 3 {
		t.Fatalf("candidates = %d, want 3", rep.Candidates)
	}
	if rep.Scanned != 3 || rep.Failed != 0 || rep.Skipped != 0 {
		t.Fatalf("scanned/failed/skipped = %d/%d/%d, want 3/0/0", rep.Scanned, rep.Failed, rep.Skipped)
	}
	if rep.Vulnerabilities != 2 { // one per webd copy
		t.Fatalf("vulnerabilities = %d, want 2", rep.Vulnerabilities)
	}
	if got := rep.FindingsByClass[taint.ClassBufferOverflow.String()]; got != 2 {
		t.Fatalf("buffer-overflow count = %d, want 2", got)
	}
	// Binaries are listed in rootfs path order.
	var paths []string
	for _, b := range rep.Binaries {
		paths = append(paths, b.Path)
	}
	want := []string{"/usr/bin/tidyd", "/usr/sbin/webd", "/usr/sbin/webd2"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for _, b := range rep.Binaries {
		if b.SHA256 == "" || len(b.SHA256) != 64 {
			t.Fatalf("binary %s: bad sha256 %q", b.Path, b.SHA256)
		}
	}
}

// TestScanImageDeterministic is the worker-count determinism guarantee:
// identical ImageReports (timings aside) for pools of 1, 4, and 8.
func TestScanImageDeterministic(t *testing.T) {
	img := twoBinaryImage(t)
	var base *ImageReport
	for _, workers := range []int{1, 4, 8} {
		rep, err := ScanImage(context.Background(), img, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		n := normalize(rep)
		if base == nil {
			base = n
			continue
		}
		if !reflect.DeepEqual(base, n) {
			t.Fatalf("workers=%d: report differs from 1-worker report\n got %+v\nwant %+v", workers, n, base)
		}
	}
}

func TestScanImageCache(t *testing.T) {
	cache, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	img := twoBinaryImage(t)

	// One worker so the two webd copies run in order: the second copy
	// must hit the entry the first one just stored.
	rep1, err := ScanImage(context.Background(), img, Options{Cache: cache, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// webd and webd2 share bytes, so the first pass already hits once.
	if rep1.Cached != 1 || rep1.Scanned != 2 {
		t.Fatalf("first pass cached/scanned = %d/%d, want 1/2", rep1.Cached, rep1.Scanned)
	}

	rep2, err := ScanImage(context.Background(), img, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cached != 3 || rep2.Scanned != 0 {
		t.Fatalf("second pass cached/scanned = %d/%d, want 3/0", rep2.Cached, rep2.Scanned)
	}
	if rep2.Cache.Hits < 4 {
		t.Fatalf("cache hits = %d, want >= 4", rep2.Cache.Hits)
	}
	// Cached results carry the same findings.
	if rep1.Vulnerabilities != rep2.Vulnerabilities || rep1.VulnerablePaths != rep2.VulnerablePaths {
		t.Fatalf("cached totals diverge: %d/%d vs %d/%d",
			rep1.Vulnerabilities, rep1.VulnerablePaths, rep2.Vulnerabilities, rep2.VulnerablePaths)
	}
}

func TestScanImageDiskCache(t *testing.T) {
	dir := t.TempDir()
	img := twoBinaryImage(t)

	c1, err := NewCache(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScanImage(context.Background(), img, Options{Cache: c1}); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new Cache over the same dir) must hit disk.
	c2, err := NewCache(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScanImage(context.Background(), img, Options{Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 3 {
		t.Fatalf("disk-backed pass cached = %d, want 3", rep.Cached)
	}
	st := c2.Stats()
	if st.DiskHits == 0 {
		t.Fatalf("disk hits = 0, want > 0 (stats %+v)", st)
	}
}

func TestCacheEviction(t *testing.T) {
	c, err := NewCache(1, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", &BinaryAnalysis{Binary: "a"})
	c.Put("b", &BinaryAnalysis{Binary: "b"})
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry still present")
	}
	if v, ok := c.Get("b"); !ok || v.Binary != "b" {
		t.Fatalf("entry b missing or wrong: %v %v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 1 entry", st)
	}
}

func TestCacheGetIsolation(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", &BinaryAnalysis{Binary: "x", Findings: []Finding{{Sink: "strcpy"}}})
	v1, _ := c.Get("k")
	v1.Findings[0].Sink = "mutated"
	v2, _ := c.Get("k")
	if v2.Findings[0].Sink != "strcpy" {
		t.Fatal("cache value mutated through a returned report")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(dataflow.Options{}, "")
	if got := Fingerprint(dataflow.Options{Parallelism: 8}, ""); got != base {
		t.Fatal("parallelism must not change the fingerprint")
	}
	if got := Fingerprint(dataflow.Options{DisableAlias: true}, ""); got == base {
		t.Fatal("alias ablation must change the fingerprint")
	}
	withSrc := dataflow.Options{ExtraSources: []taint.SourceSpec{{Name: "nvram_get", BufArg: -1, ViaReturn: true}}}
	if got := Fingerprint(withSrc, ""); got == base {
		t.Fatal("extra sources must change the fingerprint")
	}
	if got := Fingerprint(dataflow.Options{}, "module-x"); got == base {
		t.Fatal("filter tag must change the fingerprint")
	}
	if Key([]byte("bin"), base) == Key([]byte("bin"), Fingerprint(dataflow.Options{DisableAlias: true}, "")) {
		t.Fatal("different fingerprints produced the same key")
	}
}

// TestScanImageFilterBypassesCache: a non-nil filter with no tag must
// never share cache entries.
func TestScanImageFilterBypassesCache(t *testing.T) {
	cache, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	img := twoBinaryImage(t)
	opts := Options{
		Cache:    cache,
		Analysis: dataflow.Options{Filter: func(string) bool { return true }},
	}
	rep, err := ScanImage(context.Background(), img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 0 {
		t.Fatalf("cached = %d, want 0 (untagged filter must bypass cache)", rep.Cached)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("cache entries = %d, want 0", st.Entries)
	}
}

func TestScanImagePanicIsolation(t *testing.T) {
	orig := analyze
	defer func() { analyze = orig }()
	analyze = func(f firmware.File, o dataflow.Options) (*BinaryAnalysis, error) {
		if strings.Contains(f.Path, "webd") {
			panic("corrupt section table")
		}
		return orig(f, o)
	}
	rep, err := ScanImage(context.Background(), twoBinaryImage(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 2 || rep.Scanned != 1 {
		t.Fatalf("failed/scanned = %d/%d, want 2/1", rep.Failed, rep.Scanned)
	}
	for _, b := range rep.Binaries {
		if strings.Contains(b.Path, "webd") {
			if b.Status != StatusFailed || !strings.Contains(b.Error, "panicked") {
				t.Fatalf("binary %s: status %q error %q, want failed/panicked", b.Path, b.Status, b.Error)
			}
		} else if b.Status != StatusOK {
			t.Fatalf("healthy binary %s: status %q, want ok", b.Path, b.Status)
		}
	}
}

// hangAnalysis makes the analysis of the binary whose path ends in
// suffix hang until the test ends; every other binary analyzes
// normally. The scan abandons the hung analysis, but its goroutine read
// analyze, so cleanup releases it and waits for it to return before
// restoring the variable.
func hangAnalysis(t *testing.T, suffix string) {
	orig := analyze
	entered, release, exited := make(chan struct{}), make(chan struct{}), make(chan struct{})
	analyze = func(f firmware.File, o dataflow.Options) (*BinaryAnalysis, error) {
		if !strings.HasSuffix(f.Path, suffix) {
			return orig(f, o)
		}
		close(entered)
		defer close(exited)
		<-release
		return nil, fmt.Errorf("%s: released at test end", f.Path)
	}
	t.Cleanup(func() {
		close(release)
		select {
		case <-entered:
			<-exited
		default:
		}
		analyze = orig
	})
}

func TestScanImagePerBinaryTimeout(t *testing.T) {
	hangAnalysis(t, "webd")
	rep, err := ScanImage(context.Background(), twoBinaryImage(t),
		Options{PerBinaryTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var timedOut int
	for _, b := range rep.Binaries {
		if b.Status == StatusTimeout {
			timedOut++
		}
	}
	if timedOut != 1 || rep.Failed != 1 {
		t.Fatalf("timeouts = %d, failed = %d, want 1/1", timedOut, rep.Failed)
	}
}

func TestScanImageCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := ScanImage(ctx, twoBinaryImage(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != rep.Candidates || rep.Scanned != 0 {
		t.Fatalf("skipped/scanned = %d/%d, want %d/0", rep.Skipped, rep.Scanned, rep.Candidates)
	}
}

func TestScanImageProgress(t *testing.T) {
	var calls []int
	_, err := ScanImage(context.Background(), twoBinaryImage(t), Options{
		Workers:  2,
		Progress: func(done, total int) { calls = append(calls, done*100+total) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{103, 203, 303}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("progress calls = %v, want %v", calls, want)
	}
}

func TestScanImageErrors(t *testing.T) {
	if _, err := ScanImage(context.Background(), []byte("not firmware"), Options{}); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := ScanImage(context.Background(), nil, Options{Workers: -1}); err != ErrBadWorkers {
		t.Fatalf("negative workers: err = %v, want ErrBadWorkers", err)
	}
}

func TestMergeReports(t *testing.T) {
	r1 := &ImageReport{Candidates: 2, Scanned: 2, Vulnerabilities: 3, VulnerablePaths: 5,
		FindingsByClass: map[string]int{"buffer-overflow": 3}}
	r2 := &ImageReport{Candidates: 1, Cached: 1, Vulnerabilities: 1, VulnerablePaths: 1,
		FindingsByClass: map[string]int{"command-injection": 1}}
	tot := MergeReports([]*ImageReport{r1, nil, r2})
	if tot.Images != 2 || tot.Candidates != 3 || tot.Vulnerabilities != 4 || tot.VulnerablePaths != 6 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.FindingsByClass["buffer-overflow"] != 3 || tot.FindingsByClass["command-injection"] != 1 {
		t.Fatalf("by-class = %v", tot.FindingsByClass)
	}
}
