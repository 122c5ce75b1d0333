package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtaint/internal/dataflow"
	"dtaint/internal/diff"
	"dtaint/internal/fleet"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

// config tunes the scan service.
type config struct {
	// workers is the per-job orchestrator pool size (0 = GOMAXPROCS).
	workers int
	// queueCap bounds the job queue; a full queue answers 429.
	queueCap int
	// binaryTimeout caps one binary's analysis inside a job.
	binaryTimeout time.Duration
	// maxUpload bounds the accepted firmware size in bytes.
	maxUpload int64
	// cache is the shared report cache (nil = uncached).
	cache *fleet.Cache
	// sumStore is the shared function-summary store (nil = off); every
	// job's binaries replay per-function analysis through it.
	sumStore *sumstore.Store
	// analysis configures every binary analysis.
	analysis dataflow.Options
	// metrics is the service registry /v1/metrics exposes; the analysis
	// pipeline shares it via analysis.Metrics (nil = registry off, only
	// the legacy JSON counters are served).
	metrics *obs.Registry
	// log receives job lifecycle lines (nil = logging off).
	log *slog.Logger
	// journal is the live-telemetry event ring every job appends to and
	// the SSE endpoints stream from (nil = telemetry off).
	journal *events.Journal
	// stallTimeout arms a per-job stall watchdog over the journal
	// (0 = off); debugDir receives one diagnostic bundle per stall.
	stallTimeout time.Duration
	debugDir     string
}

// Job states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
	// stateStalled: the scan finished but the stall watchdog abandoned
	// one or more binaries — a distinct terminal state so a killed
	// analysis never reads as a clean, empty success.
	stateStalled = "stalled"
)

// Job kinds.
const (
	kindScan = "scan"
	kindDiff = "diff"
)

// job is one firmware scan or diff moving through the queue. Both kinds
// share the table, the queue, and the single runner: a diff is just a
// job whose payload is two images and whose result is a diff report.
type job struct {
	id       string
	kind     string
	state    string
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	done     int // analysis units completed so far
	total    int // total analysis units
	stalled  int // binaries the stall watchdog abandoned
	data     []byte
	// newData is the diff job's new-version image (nil for scans; data
	// then holds the old version).
	newData []byte
	// vocab is this job's request-scoped vocabulary override (nil =
	// server default). Carrying the compiled form means a malformed
	// spec was already rejected with 400 at accept time.
	vocab      *taint.Vocabulary
	report     *fleet.ImageReport
	diffReport *diff.Report
}

// jobView is the JSON shape of a job's status.
type jobView struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// BinariesDone/BinariesTotal report scan progress while running.
	BinariesDone  int `json:"binariesDone"`
	BinariesTotal int `json:"binariesTotal"`
	// BinariesStalled counts binaries the stall watchdog abandoned.
	BinariesStalled int `json:"binariesStalled,omitempty"`
}

// metricsView is the JSON shape of /v1/metrics. The jobs/queueDepth/
// queueCap keys are the original wire contract; the lifetime counters
// and the registry dump are additive.
type metricsView struct {
	Jobs       map[string]int    `json:"jobs"`
	QueueDepth int               `json:"queueDepth"`
	QueueCap   int               `json:"queueCap"`
	Cache      *fleet.CacheStats `json:"cache,omitempty"`
	// JobsAccepted/Started/Done/Failed are lifetime counters read in the
	// same critical section as everything above, so done can never exceed
	// started in one response.
	JobsAccepted uint64 `json:"jobsAccepted"`
	JobsStarted  uint64 `json:"jobsStarted"`
	JobsDone     uint64 `json:"jobsDone"`
	JobsFailed   uint64 `json:"jobsFailed"`
	// Metrics is the full registry snapshot (analysis histograms, fleet
	// counters), absent when the registry is off.
	Metrics []obs.MetricSnapshot `json:"metrics,omitempty"`
}

// server owns the job table, the bounded queue, and the single runner
// goroutine that executes jobs in arrival order (each job is internally
// parallel across its binaries).
type server struct {
	cfg config

	mu   sync.Mutex
	jobs map[string]*job
	seq  int
	// Lifetime job counters, authoritative under mu. /v1/metrics reads
	// them (and everything else it reports) in one critical section —
	// the consistent-snapshot fix — and mirrors them into the registry
	// at scrape time.
	jobsAccepted uint64
	jobsStarted  uint64
	jobsDone     uint64
	jobsFailed   uint64

	queue      chan *job
	stop       chan struct{}
	runnerDone chan struct{}

	// draining flips when graceful shutdown begins; /readyz answers 503
	// from then on so load balancers stop routing new work here.
	draining atomic.Bool

	runCtx    context.Context
	runCancel context.CancelFunc
}

func newServer(cfg config) *server {
	if cfg.queueCap <= 0 {
		cfg.queueCap = 16
	}
	if cfg.maxUpload <= 0 {
		cfg.maxUpload = 256 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &server{
		cfg:        cfg,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, cfg.queueCap),
		stop:       make(chan struct{}),
		runnerDone: make(chan struct{}),
		runCtx:     ctx,
		runCancel:  cancel,
	}
}

// start launches the runner goroutine.
func (s *server) start() {
	go s.run()
}

// setDraining flips /readyz to 503 ahead of the actual listener
// shutdown, giving load balancers a window to stop routing here.
func (s *server) setDraining() { s.draining.Store(true) }

// shutdown drains gracefully: the in-flight job finishes, queued jobs
// are failed with a shutdown error, and the runner exits. If the runner
// does not drain within wait, the run context is cancelled so the
// current job's remaining binaries are skipped.
func (s *server) shutdown(wait time.Duration) {
	s.setDraining()
	close(s.stop)
	select {
	case <-s.runnerDone:
	case <-time.After(wait):
		s.runCancel()
		<-s.runnerDone
	}
}

func (s *server) run() {
	defer close(s.runnerDone)
	for {
		select {
		case <-s.stop:
			// Drain the queue: everything not yet started is failed
			// deterministically rather than silently dropped.
			for {
				select {
				case j := <-s.queue:
					s.finishJob(j, nil, nil, fmt.Errorf("server shutting down"))
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *server) runJob(j *job) {
	s.mu.Lock()
	j.state = stateRunning
	j.started = time.Now()
	s.jobsStarted++
	data, newData := j.data, j.newData
	j.data, j.newData = nil, nil // the job owns the bytes now; drop the queue's copies early
	s.mu.Unlock()
	if s.cfg.log != nil {
		s.cfg.log.Info("job started", "job", j.id, "kind", j.kind, "bytes", len(data)+len(newData))
	}

	aopts := s.cfg.analysis
	if aopts.Log != nil {
		aopts.Log = aopts.Log.With("job", j.id)
	}
	// Every job gets its own tracer bridged into the shared journal, so
	// pipeline spans become job-scoped telemetry events without two
	// jobs' spans ever mixing. Nil journal → nil emitter → every emit
	// and the bridge registration below are no-ops.
	em := s.cfg.journal.Emitter(j.id)
	if em != nil {
		tr := obs.NewTracer()
		events.Bridge(tr, em)
		aopts.Tracer = tr
		aopts.Events = em
	}
	em.Emit(events.ScanEvent{Type: events.TypeJobStarted,
		Attrs: map[string]any{"kind": j.kind}})
	if j.vocab != nil {
		// Per-request override beats the server default. The vocabulary
		// digest is part of the report-cache and summary-store
		// fingerprints, so a job with a custom vocabulary can never be
		// served results computed under a different one.
		aopts.Vocab = j.vocab
	}
	// Scan and diff jobs share one option set, stall watchdog included.
	fopts := fleet.Options{
		Workers:          s.cfg.workers,
		PerBinaryTimeout: s.cfg.binaryTimeout,
		Analysis:         aopts,
		Cache:            s.cfg.cache,
		SummaryStore:     s.cfg.sumStore,
		Progress: func(done, total int) {
			s.mu.Lock()
			j.done, j.total = done, total
			s.mu.Unlock()
		},
		StallTimeout: s.cfg.stallTimeout,
		DebugDir:     s.cfg.debugDir,
	}
	if j.kind == kindDiff {
		drep, err := diff.Diff(s.runCtx, data, newData, fopts)
		s.finishJob(j, nil, drep, err)
		return
	}
	rep, err := fleet.ScanImage(s.runCtx, data, fopts)
	s.finishJob(j, rep, nil, err)
}

func (s *server) finishJob(j *job, rep *fleet.ImageReport, drep *diff.Report, err error) {
	// The terminal event is journaled BEFORE the job state flips: an SSE
	// handler that subscribes and then sees a terminal state is thereby
	// guaranteed the job.done/job.failed event is already in (or before)
	// its subscription window — never still in flight.
	em := s.cfg.journal.Emitter(j.id)
	switch {
	case err != nil:
		em.Emit(events.ScanEvent{Type: events.TypeJobFailed,
			Attrs: map[string]any{"error": err.Error()}})
	case rep != nil:
		em.Emit(events.ScanEvent{Type: events.TypeJobDone, Attrs: map[string]any{
			"candidates": rep.Candidates, "vulnerabilities": rep.Vulnerabilities,
			"stalled": rep.Stalled}})
	case drep != nil:
		em.Emit(events.ScanEvent{Type: events.TypeJobDone, Attrs: map[string]any{
			"new": drep.NewFindings, "fixed": drep.FixedFindings,
			"persisting": drep.PersistingFindings}})
	default:
		em.Emit(events.ScanEvent{Type: events.TypeJobDone})
	}

	s.mu.Lock()
	j.finished = time.Now()
	elapsed := j.finished.Sub(j.started)
	j.data, j.newData = nil, nil
	if err != nil {
		j.state = stateFailed
		j.err = err.Error()
		s.jobsFailed++
	} else {
		j.state = stateDone
		j.report = rep
		j.diffReport = drep
		if rep != nil {
			j.done, j.total = rep.Candidates, rep.Candidates
			if j.stalled = rep.Stalled; j.stalled > 0 {
				j.state = stateStalled
			}
		}
		s.jobsDone++
	}
	s.mu.Unlock()
	if s.cfg.log == nil {
		return
	}
	if err != nil {
		s.cfg.log.Error("job failed", "job", j.id, "error", err.Error())
		return
	}
	if drep != nil {
		s.cfg.log.Info("job done", "job", j.id, "kind", kindDiff,
			"replayed", drep.Replayed, "reanalyzed", drep.Reanalyzed,
			"new", drep.NewFindings, "fixed", drep.FixedFindings,
			"persisting", drep.PersistingFindings,
			"seconds", elapsed.Seconds())
		return
	}
	s.cfg.log.Info("job done", "job", j.id,
		"candidates", rep.Candidates, "vulnerabilities", rep.Vulnerabilities,
		"seconds", elapsed.Seconds())
}

// handler routes the v1 API.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	mux.HandleFunc("POST /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while the server should
// receive traffic, 503 once graceful drain has begun or the job queue
// is saturated (new scans would bounce with 429 anyway).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSONStatus(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "draining"})
		return
	}
	depth, capacity := len(s.queue), cap(s.queue)
	if depth >= capacity {
		writeJSONStatus(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "queue saturated",
				"queueDepth": depth, "queueCap": capacity})
		return
	}
	writeJSON(w, map[string]any{"ready": true, "queueDepth": depth, "queueCap": capacity})
}

// handleJobEvents streams one job's telemetry as Server-Sent Events:
// buffered journal history first (from Last-Event-ID when the client is
// resuming a dropped connection), then live events until the job's
// terminal event (job.done/job.failed) or the client disconnects.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.lookup(id); !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if s.cfg.journal == nil {
		httpError(w, http.StatusNotImplemented, "event journal disabled (-journal 0)")
		return
	}
	s.streamEvents(w, r, id)
}

// handleEvents is the firehose: every job's events, no terminal close.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.cfg.journal == nil {
		httpError(w, http.StatusNotImplemented, "event journal disabled (-journal 0)")
		return
	}
	s.streamEvents(w, r, "")
}

// streamEvents writes the SSE stream. job filters to one job and closes
// after its terminal event; empty streams everything until disconnect.
// Each frame is "id: <seq>\nevent: <type>\ndata: <json>\n\n", so a
// reconnecting client's Last-Event-ID resumes exactly after the last
// frame it saw; events that aged out of the ring in the meantime are
// reported in a "dropped" frame rather than silently skipped.
func (s *server) streamEvents(w http.ResponseWriter, r *http.Request, job string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var after uint64
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		v, err := strconv.ParseUint(lid, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "malformed Last-Event-ID: "+lid)
			return
		}
		after = v
	}
	sub := s.cfg.journal.Subscribe(after)
	defer sub.Close()
	// Subscribe-then-check: terminal events are journaled before the job
	// state flips, so a terminal state observed *after* subscribing means
	// the terminal event is already inside (or before) this subscription
	// window — the stream below can never miss it and block forever.
	terminalAlready := false
	if job != "" {
		if j, ok := s.lookup(job); ok {
			s.mu.Lock()
			st := j.state
			s.mu.Unlock()
			terminalAlready = st == stateDone || st == stateFailed || st == stateStalled
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	write := func(evs []events.ScanEvent, dropped uint64) (terminal bool) {
		if dropped > 0 {
			fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", dropped)
		}
		for _, ev := range evs {
			if job != "" && ev.Job != job {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			if job != "" && ev.Job == job && ev.Terminal() {
				terminal = true
			}
		}
		fl.Flush()
		return terminal
	}

	if terminalAlready {
		// Drain what the ring still holds and close; never block on a
		// job that will emit nothing more.
		evs, dropped := sub.Poll()
		write(evs, dropped)
		return
	}
	for {
		evs, dropped, err := sub.Next(r.Context())
		if err != nil {
			return // client went away
		}
		if write(evs, dropped) {
			return
		}
	}
}

func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	data, voc, ok := s.readScanRequest(w, r)
	if !ok {
		return
	}
	if len(data) == 0 {
		httpError(w, http.StatusBadRequest, "empty firmware upload")
		return
	}
	s.enqueue(w, &job{kind: kindScan, data: data, vocab: voc})
}

// handleDiff accepts a differential scan: multipart/form-data with
// required "old" and "new" image parts plus the same optional "vocab"
// part as /v1/scan. The job flows through the same queue and runner as
// scans; its report endpoint returns a diff.Report.
func (s *server) handleDiff(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxUpload)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct != "multipart/form-data" {
		httpError(w, http.StatusBadRequest, "diff requires multipart/form-data with \"old\" and \"new\" image parts")
		return
	}
	if !s.parseForm(w, r) {
		return
	}
	defer func() { _ = r.MultipartForm.RemoveAll() }()
	oldData, err := formPart(r, "old")
	if err != nil {
		httpError(w, http.StatusBadRequest, "diff upload needs an \"old\" part: "+err.Error())
		return
	}
	newData, err := formPart(r, "new")
	if err != nil {
		httpError(w, http.StatusBadRequest, "diff upload needs a \"new\" part: "+err.Error())
		return
	}
	if len(oldData) == 0 || len(newData) == 0 {
		httpError(w, http.StatusBadRequest, "empty firmware upload")
		return
	}
	voc, ok := s.readVocabPart(w, r)
	if !ok {
		return
	}
	s.enqueue(w, &job{kind: kindDiff, data: oldData, newData: newData, vocab: voc})
}

// enqueue registers the job and offers it to the bounded queue — the
// shared accept path for scans and diffs. A full queue answers 429 with
// a Retry-After hint and forgets the job.
func (s *server) enqueue(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("job-%06d", s.seq)
	j.state = stateQueued
	j.created = time.Now()
	s.jobs[j.id] = j
	s.mu.Unlock()

	// Sized before the send: the runner nils the payload fields as soon
	// as it picks the job up.
	bytes := len(j.data) + len(j.newData)
	select {
	case s.queue <- j:
		s.mu.Lock()
		s.jobsAccepted++
		s.mu.Unlock()
		s.cfg.journal.Emitter(j.id).Emit(events.ScanEvent{
			Type:  events.TypeJobQueued,
			Attrs: map[string]any{"kind": j.kind, "bytes": bytes},
		})
		if s.cfg.log != nil {
			s.cfg.log.Info("job accepted", "job", j.id, "kind", j.kind, "bytes", bytes)
		}
		writeJSONStatus(w, http.StatusAccepted, map[string]string{"id": j.id, "state": stateQueued})
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, "scan queue is full")
	}
}

// readScanRequest accepts the two upload forms of POST /v1/scan: the
// original raw-body firmware upload, and multipart/form-data with a
// required "firmware" part plus an optional "vocab" part carrying a
// JSON vocabulary spec that overrides the server default for this job
// only. Malformed vocabularies are rejected here — at accept time,
// with the vocab package's line- and field-precise error — so a bad
// spec costs 400, never a queued-then-failed job. On failure the
// response has been written and ok is false.
func (s *server) readScanRequest(w http.ResponseWriter, r *http.Request) (data []byte, voc *taint.Vocabulary, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxUpload)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct != "multipart/form-data" {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			httpError(w, http.StatusRequestEntityTooLarge, "firmware upload too large or unreadable")
			return nil, nil, false
		}
		return data, nil, true
	}
	if !s.parseForm(w, r) {
		return nil, nil, false
	}
	defer func() { _ = r.MultipartForm.RemoveAll() }()
	data, err := formPart(r, "firmware")
	if err != nil {
		httpError(w, http.StatusBadRequest, "multipart upload needs a \"firmware\" part: "+err.Error())
		return nil, nil, false
	}
	voc, ok = s.readVocabPart(w, r)
	if !ok {
		return nil, nil, false
	}
	return data, voc, true
}

// parseForm parses a multipart upload whose body is already capped at
// -max-upload. A body over the cap answers 413, as a raw upload does;
// any other parse error answers 400. On failure the response has been
// written and parseForm returns false.
func (s *server) parseForm(w http.ResponseWriter, r *http.Request) bool {
	err := r.ParseMultipartForm(s.cfg.maxUpload)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "multipart upload too large: "+err.Error())
	} else {
		httpError(w, http.StatusBadRequest, "malformed multipart upload: "+err.Error())
	}
	return false
}

// readVocabPart compiles the optional "vocab" part of a parsed
// multipart form. A missing part keeps the server default (nil, true);
// a malformed spec writes 400 and returns ok=false.
func (s *server) readVocabPart(w http.ResponseWriter, r *http.Request) (*taint.Vocabulary, bool) {
	vdata, err := formPart(r, "vocab")
	if err != nil {
		// No vocab part at all: the server default applies.
		return nil, true
	}
	spec, err := vocab.Parse(vdata, "vocab")
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid vocabulary: "+err.Error())
		return nil, false
	}
	v, err := taint.CompileVocabulary(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid vocabulary: "+err.Error())
		return nil, false
	}
	return v, true
}

// formPart reads one named part of a parsed multipart form, accepting
// both file parts (curl -F vocab=@file.json) and plain value fields.
func formPart(r *http.Request, name string) ([]byte, error) {
	if fhs := r.MultipartForm.File[name]; len(fhs) > 0 {
		f, err := fhs[0].Open()
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return io.ReadAll(f)
	}
	if vs := r.MultipartForm.Value[name]; len(vs) > 0 {
		return []byte(vs[0]), nil
	}
	return nil, fmt.Errorf("part %q missing", name)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, s.view(j))
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	state, errMsg, rep, drep := j.state, j.err, j.report, j.diffReport
	s.mu.Unlock()
	switch state {
	case stateDone, stateStalled:
		if drep != nil {
			writeJSON(w, drep)
			return
		}
		writeJSON(w, rep)
	case stateFailed:
		httpError(w, http.StatusUnprocessableEntity, "scan failed: "+errMsg)
	default:
		w.Header().Set("Retry-After", "2")
		httpError(w, http.StatusConflict, "job is "+state+"; report not ready")
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Consistent snapshot: every server-owned value — the per-state job
	// table, the queue depth, and the lifetime counters — is read in ONE
	// critical section, so a response can never show jobsDone ahead of
	// jobsStarted or a queue depth from a different instant.
	s.mu.Lock()
	byState := map[string]int{stateQueued: 0, stateRunning: 0, stateDone: 0, stateFailed: 0, stateStalled: 0}
	for _, j := range s.jobs {
		byState[j.state]++
	}
	m := metricsView{
		Jobs:         byState,
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		JobsAccepted: s.jobsAccepted,
		JobsStarted:  s.jobsStarted,
		JobsDone:     s.jobsDone,
		JobsFailed:   s.jobsFailed,
	}
	s.mu.Unlock()
	if s.cfg.cache != nil {
		st := s.cfg.cache.Stats()
		m.Cache = &st
	}

	// Mirror the snapshot into the registry so both exposition formats
	// report the same values. Registry handles are nil-safe: a server
	// without a registry mirrors into throwaway instruments.
	reg := s.cfg.metrics
	reg.Counter("dtaintd_jobs_accepted_total", "Scan jobs accepted into the queue.", nil).Store(m.JobsAccepted)
	reg.Counter("dtaintd_jobs_started_total", "Scan jobs the runner started.", nil).Store(m.JobsStarted)
	reg.Counter("dtaintd_jobs_done_total", "Scan jobs finished successfully.", nil).Store(m.JobsDone)
	reg.Counter("dtaintd_jobs_failed_total", "Scan jobs that failed.", nil).Store(m.JobsFailed)
	reg.Gauge("dtaintd_queue_depth", "Jobs waiting in the queue.", nil).Set(float64(m.QueueDepth))
	reg.Gauge("dtaintd_queue_cap", "Queue capacity.", nil).Set(float64(m.QueueCap))
	if m.Cache != nil {
		m.Cache.Publish(reg, "dtaint_cache", "Report-cache")
	}

	// Content negotiation: Prometheus scrapers ask for text/plain, API
	// clients get the JSON view (registry snapshot included).
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
		return
	}
	m.Metrics = reg.Snapshot()
	writeJSON(w, m)
}

// wantsPrometheus reports whether the request prefers the Prometheus
// text exposition: an explicit text/plain Accept (what Prometheus
// sends) without an explicit application/json preference.
func wantsPrometheus(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

func (s *server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *server) view(j *job) jobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := jobView{
		ID:              j.id,
		Kind:            j.kind,
		State:           j.state,
		Error:           j.err,
		Created:         j.created.UTC().Format(time.RFC3339Nano),
		BinariesDone:    j.done,
		BinariesTotal:   j.total,
		BinariesStalled: j.stalled,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
