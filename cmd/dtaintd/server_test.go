package main

import (
	"bytes"
	"context"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dtaint"
	"dtaint/internal/corpus"
	"dtaint/internal/diff"
	"dtaint/internal/fleet"
	"dtaint/internal/sumstore"
)

func testFirmware(t *testing.T) []byte {
	t.Helper()
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func startTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.start()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.shutdown(5 * time.Second)
	})
	return s, ts
}

func postScan(t *testing.T, ts *httptest.Server, fw []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(fw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/scan = %d, want 202", resp.StatusCode)
	}
	var ack struct{ ID, State string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" || ack.State != stateQueued {
		t.Fatalf("ack = %+v", ack)
	}
	return ack.ID
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case stateDone:
			return v
		case stateFailed:
			t.Fatalf("job failed: %s", v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return jobView{}
}

func getReport(t *testing.T, ts *httptest.Server, id string) *fleet.ImageReport {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report = %d, want 200", resp.StatusCode)
	}
	var rep fleet.ImageReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestScanEndToEnd is the acceptance flow: POST an image, poll to done,
// fetch the report, re-POST and see cache hits.
func TestScanEndToEnd(t *testing.T) {
	cache, err := fleet.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, config{cache: cache})
	fw := testFirmware(t)

	id := postScan(t, ts, fw)
	v := waitDone(t, ts, id)
	if v.BinariesDone != v.BinariesTotal || v.BinariesTotal == 0 {
		t.Fatalf("progress = %d/%d", v.BinariesDone, v.BinariesTotal)
	}
	rep := getReport(t, ts, id)
	if rep.Product != "DIR-645" {
		t.Fatalf("product = %q", rep.Product)
	}
	if rep.Vulnerabilities == 0 || rep.Scanned == 0 {
		t.Fatalf("report: %d scanned, %d vulnerabilities, want > 0", rep.Scanned, rep.Vulnerabilities)
	}
	// The findings a direct library run produces must be what the wire
	// report carries.
	direct, err := dtaint.New().AnalyzeFirmware(fw, rep.Binaries[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vulnerabilities != len(direct.Vulnerabilities()) ||
		rep.VulnerablePaths != len(direct.VulnerablePaths()) {
		t.Fatalf("served %d/%d, direct run %d/%d",
			rep.Vulnerabilities, rep.VulnerablePaths,
			len(direct.Vulnerabilities()), len(direct.VulnerablePaths()))
	}

	// Second scan of the same image: all binaries served from cache.
	id2 := postScan(t, ts, fw)
	waitDone(t, ts, id2)
	rep2 := getReport(t, ts, id2)
	if rep2.Cached == 0 || rep2.Cache.Hits == 0 {
		t.Fatalf("second scan: cached=%d hits=%d, want > 0", rep2.Cached, rep2.Cache.Hits)
	}
	if rep2.Vulnerabilities != rep.Vulnerabilities {
		t.Fatalf("cached report diverged: %d vs %d", rep2.Vulnerabilities, rep.Vulnerabilities)
	}
}

// postMultipart POSTs /v1/scan as multipart/form-data with a firmware
// part and, when vocabJSON is non-empty, a vocab part.
func postMultipart(t *testing.T, ts *httptest.Server, fw []byte, vocabJSON string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fp, err := mw.CreateFormFile("firmware", "image.fwimg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Write(fw); err != nil {
		t.Fatal(err)
	}
	if vocabJSON != "" {
		vp, err := mw.CreateFormFile("vocab", "vocab.json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vp.Write([]byte(vocabJSON)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scan", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestScanVocabOverride: a multipart scan with a sink-free vocabulary
// must report zero vulnerabilities on an image the default vocabulary
// flags, and the two jobs must not share cached results even though
// they scan byte-identical binaries through the same cache.
// TestDaemonFingerprintMatchesCLI: the daemon starts from the options
// dtaint.New builds, so both front ends key reports on the same options
// fingerprint and a report cache the CLI fills serves the daemon's scan
// of the same image without a single analysis.
func TestDaemonFingerprintMatchesCLI(t *testing.T) {
	fw := testFirmware(t)
	dir := t.TempDir()
	cliCache, err := dtaint.NewFleetCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtaint.New().ScanFirmwareFleet(context.Background(), fw, dtaint.WithFleetCache(cliCache)); err != nil {
		t.Fatal(err)
	}
	cache, err := fleet.NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.ScanImage(context.Background(), fw, fleet.Options{
		Analysis: analysisOptions(serveOptions{}), Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Binaries) == 0 {
		t.Fatal("scan analyzed no binaries")
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits != uint64(len(rep.Binaries)) {
		t.Fatalf("daemon scan over the CLI's cache: %d hits, %d misses for %d binaries; want every binary a hit",
			st.Hits, st.Misses, len(rep.Binaries))
	}
}

func TestScanVocabOverride(t *testing.T) {
	cache, err := fleet.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, config{cache: cache})
	fw := testFirmware(t)

	// Baseline raw-body scan under the default vocabulary.
	id := postScan(t, ts, fw)
	waitDone(t, ts, id)
	rep := getReport(t, ts, id)
	if rep.Vulnerabilities == 0 {
		t.Fatal("default vocabulary found nothing to compare against")
	}

	// Multipart scan with a vocabulary that declares sources only: the
	// cache already holds this image's reports, but the vocabulary digest
	// keys them apart, so this job recomputes and finds nothing.
	resp := postMultipart(t, ts, fw, `{"version": 1, "functions": [
		{"name": "read", "kind": "source",
		 "args": [{"type": "int"}, {"type": "char*", "role": "dest"}, {"type": "int", "role": "len"}]}]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart POST = %d, want 202", resp.StatusCode)
	}
	var ack struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, ack.ID)
	rep2 := getReport(t, ts, ack.ID)
	if rep2.Vulnerabilities != 0 {
		t.Fatalf("sink-free vocabulary reported %d vulnerabilities", rep2.Vulnerabilities)
	}
	if rep2.Cached != 0 {
		t.Fatalf("vocab-override job served %d binaries from the default-vocab cache", rep2.Cached)
	}

	// A multipart scan without a vocab part behaves like the raw form —
	// and now it DOES hit the cache warmed by the baseline job.
	resp3 := postMultipart(t, ts, fw, "")
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("vocabless multipart POST = %d, want 202", resp3.StatusCode)
	}
	var ack3 struct{ ID string }
	if err := json.NewDecoder(resp3.Body).Decode(&ack3); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, ack3.ID)
	rep3 := getReport(t, ts, ack3.ID)
	if rep3.Vulnerabilities != rep.Vulnerabilities {
		t.Fatalf("multipart default-vocab scan diverged: %d vs %d", rep3.Vulnerabilities, rep.Vulnerabilities)
	}
	if rep3.Cached == 0 {
		t.Fatal("identical-vocabulary rescan missed the warm cache")
	}
}

// Malformed vocabularies are rejected with 400 at accept time, with
// the vocab package's precise error in the response body.
func TestScanVocabRejection(t *testing.T) {
	_, ts := startTestServer(t, config{})
	fw := testFirmware(t)
	cases := []struct {
		name, vocab, want string
	}{
		{"bad kind", `{"version": 1, "functions": [{"name": "f", "kind": "sinkhole"}]}`, `unknown kind "sinkhole"`},
		{"syntax error", "{\n  \"functions\": [,]\n}", "vocab:2"},
		{"wrong version", `{"version": 9, "functions": [{"name": "f", "kind": "model", "model": "nop"}]}`, "version 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postMultipart(t, ts, fw, tc.vocab)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("malformed vocab POST = %d, want 400", resp.StatusCode)
			}
			var e struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, "invalid vocabulary") || !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error = %q, want it to mention %q", e.Error, tc.want)
			}
		})
	}

	// A multipart POST without the firmware part is also a 400.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scan", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("firmware-less multipart POST = %d, want 400", resp.StatusCode)
	}
}

// postDiff POSTs /v1/diff as multipart/form-data with old and new image
// parts and returns the raw response.
func postDiff(t *testing.T, ts *httptest.Server, oldFw, newFw []byte) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		data []byte
	}{{"old", oldFw}, {"new", newFw}} {
		fp, err := mw.CreateFormFile(part.name, part.name+".fwimg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fp.Write(part.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/diff", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDiffEndToEnd: scan the old version to warm the shared cache, then
// diff old→new over the wire and check that only the delta was
// re-analyzed and the findings classified.
func TestDiffEndToEnd(t *testing.T) {
	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 3, Mutated: 1, SharedFuncs: 10, TailFuncs: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := fleet.NewCache(256, "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sumstore.NewStore(4096, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, config{cache: cache, sumStore: store})

	// Nightly scan of the old version through the same server.
	waitDone(t, ts, postScan(t, ts, vp.Old))

	resp := postDiff(t, ts, vp.Old, vp.New)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/diff = %d, want 202", resp.StatusCode)
	}
	var ack struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, ts, ack.ID)
	if v.Kind != kindDiff {
		t.Fatalf("job kind = %q, want %q", v.Kind, kindDiff)
	}

	rresp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("GET diff report = %d, want 200", rresp.StatusCode)
	}
	var rep diff.Report
	if err := json.NewDecoder(rresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if want := vp.Spec.Mutated + 1; rep.Reanalyzed != want {
		t.Fatalf("Reanalyzed = %d, want %d (mutated + added only)", rep.Reanalyzed, want)
	}
	if rep.NewFindings != vp.NewVulns || rep.FixedFindings != vp.FixedVulns ||
		rep.PersistingFindings != vp.PersistingVulns {
		t.Fatalf("findings new/fixed/persisting = %d/%d/%d, want %d/%d/%d",
			rep.NewFindings, rep.FixedFindings, rep.PersistingFindings,
			vp.NewVulns, vp.FixedVulns, vp.PersistingVulns)
	}
	if rep.SummaryHitRate == 0 {
		t.Fatal("diff job did not replay old-version function summaries")
	}
}

// Malformed diff uploads are rejected at accept time.
func TestDiffBadRequests(t *testing.T) {
	_, ts := startTestServer(t, config{})

	// Non-multipart body.
	resp, err := http.Post(ts.URL+"/v1/diff", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw-body diff POST = %d, want 400", resp.StatusCode)
	}

	// Missing "new" part.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fp, err := mw.CreateFormFile("old", "old.fwimg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Write(testFirmware(t)); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/diff", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("one-part diff POST = %d, want 400", resp.StatusCode)
	}
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, `"new"`) {
		t.Fatalf("error = %q, want it to name the missing part", e.Error)
	}
}

// Queue-full shedding is shared between /v1/scan and /v1/diff: both
// answer 429 with a Retry-After hint.
func TestDiffQueueSaturation(t *testing.T) {
	// No runner: jobs stay queued, so the second POST must shed.
	s := newServer(config{queueCap: 1})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	fw := testFirmware(t)

	first := postDiff(t, ts, fw, fw)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first diff POST = %d, want 202", first.StatusCode)
	}
	resp := postDiff(t, ts, fw, fw)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated diff POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestQueueSaturation(t *testing.T) {
	// No runner: jobs stay queued, so the second POST must shed.
	s := newServer(config{queueCap: 1})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	fw := testFirmware(t)

	postScan(t, ts, fw)
	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(fw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The shed job must not linger in the job table.
	var m metricsView
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs[stateQueued] != 1 || m.QueueDepth != 1 || m.QueueCap != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestJobNotFoundAndNotReady(t *testing.T) {
	s := newServer(config{queueCap: 2}) // runner not started: job stays queued
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}

	id := postScan(t, ts, testFirmware(t))
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished report = %d, want 409", resp.StatusCode)
	}
}

func TestBadUploads(t *testing.T) {
	_, ts := startTestServer(t, config{})

	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty upload = %d, want 400", resp.StatusCode)
	}

	// Junk bytes queue fine but fail during the scan; the job surfaces
	// the unpack error.
	resp, err = http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if v.State == stateFailed {
			rr, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/report")
			if err != nil {
				t.Fatal(err)
			}
			rr.Body.Close()
			if rr.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("failed job report = %d, want 422", rr.StatusCode)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("junk scan never failed")
}

func TestUploadLimit(t *testing.T) {
	_, ts := startTestServer(t, config{maxUpload: 16})
	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream",
		bytes.NewReader(bytes.Repeat([]byte("x"), 64)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload = %d, want 413", resp.StatusCode)
	}
}

func TestGracefulShutdownDrainsQueue(t *testing.T) {
	s := newServer(config{queueCap: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	id := postScan(t, ts, testFirmware(t))

	// Runner never started; shutdown must fail the queued job rather
	// than leave it queued forever.
	s.start()
	s.shutdown(5 * time.Second)

	j, ok := s.lookup(id)
	if !ok {
		t.Fatal("job vanished")
	}
	s.mu.Lock()
	state, errMsg := j.state, j.err
	s.mu.Unlock()
	if state == stateDone {
		return // runner got to it before the stop signal: also fine
	}
	if state != stateFailed || errMsg == "" {
		t.Fatalf("queued job after shutdown: state=%q err=%q, want failed", state, errMsg)
	}
}
