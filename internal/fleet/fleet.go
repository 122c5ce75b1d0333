package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
)

// Options configures a scan: of one image (ScanImage), a corpus
// (ScanCorpus) or an image pair (diff.Diff, whose Options is this type).
type Options struct {
	// Workers bounds the orchestrator pool: how many binaries are
	// analyzed concurrently (0 = GOMAXPROCS, negative is rejected).
	Workers int
	// PerBinaryTimeout caps one binary's analysis wall-clock (0 = no
	// cap). A timed-out binary is reported as StatusTimeout; its
	// analysis goroutine is abandoned and exits when the analyzer
	// returns (the engine is CPU-bound and not interruptible).
	PerBinaryTimeout time.Duration
	// Analysis configures the per-binary analyzer. If
	// Analysis.Parallelism is 0 the orchestrator sets it to 1: with many
	// binaries in flight, one worker per binary maximizes throughput,
	// and results are identical either way.
	Analysis dataflow.Options
	// FilterTag names Analysis.Filter for cache-key purposes (function
	// values cannot be fingerprinted). Caching is bypassed when
	// Analysis.Filter is non-nil and FilterTag is empty.
	FilterTag string
	// Cache, when non-nil, is consulted before and updated after every
	// binary analysis.
	Cache *Cache
	// SummaryStore, when non-nil, is shared by every binary analysis in
	// the scan (and, via ScanCorpus, across a whole corpus): per-function
	// and per-component summaries are keyed by content, so binaries
	// sharing code — every image's busybox, the common libc-shaped
	// modules — are symbolically executed once per unique function.
	// Results are bit-identical with and without a store, so it is
	// excluded from the report-cache fingerprint.
	SummaryStore *sumstore.Store
	// PathFilter, when non-nil, restricts candidates to rootfs paths for
	// which it returns true.
	PathFilter func(path string) bool
	// Progress, when non-nil, is called after each binary completes with
	// the number done so far and the total candidate count. Calls are
	// serialized.
	Progress func(done, total int)
	// StallTimeout arms a stall watchdog over the scan's event stream:
	// when the scan journals no telemetry event for this long, the
	// watchdog emits a stall event, captures a diagnostic bundle (see
	// DebugDir), and abandons the in-flight binaries — they report
	// StatusStalled, never an empty success. 0 disables the watchdog.
	// When Analysis.Events is nil, the scan attaches a private journal
	// so the watchdog has a stream to watch. Pick a deadline well above
	// the slowest single function's analysis time: progress events flow
	// per completed function, so one monstrous function is the finest
	// silence a healthy scan produces.
	StallTimeout time.Duration
	// DebugDir receives one diagnostic bundle directory per stall:
	// goroutine dump, Chrome trace, metrics snapshot, options
	// fingerprint, the job's event journal, and the partial report of
	// the binaries completed so far. Empty skips bundle capture.
	DebugDir string

	// watchdog is the armed stall watchdog (set by ArmWatchdog; nil when
	// StallTimeout is 0) every ScanOne of the scan selects on.
	watchdog *events.Watchdog

	// inflight deduplicates concurrent analyses of identical binaries
	// within one scan (set by Prepare when a cache is configured):
	// the first worker to reach a cache key analyzes, the rest wait and
	// re-read the cache.
	inflight *flightGroup
}

// ErrBadWorkers reports a negative worker count.
var ErrBadWorkers = errors.New("fleet: workers must be >= 0 (0 uses GOMAXPROCS)")

// ScanImage unpacks a firmware container, enumerates the FWELF
// executables in its root filesystem, and analyzes each across a bounded
// worker pool. One corrupt or pathological binary cannot take down the
// run: panics are confined to that binary's report entry, and a
// per-binary timeout bounds stragglers. Cancelling ctx stops new work;
// binaries not yet started are reported as StatusSkipped.
//
// The returned report lists binaries in rootfs path order and is
// deterministic (timings aside) for any worker count.
func ScanImage(ctx context.Context, data []byte, opts Options) (*ImageReport, error) {
	if err := opts.Prepare(); err != nil {
		return nil, err
	}
	start := time.Now()

	// The scan's observability handles ride on the analysis options; the
	// whole image gets one root span and every binary a child span that
	// the per-binary pipeline stages nest under.
	scanSpan := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "scan-image")
	opts.Analysis.ParentSpan = scanSpan

	st := opts.Analysis.StartStage("unpack-firmware", obs.KV("bytes", len(data)))
	img, fs, err := firmware.Unpack(data)
	if err != nil {
		st.End()
		scanSpan.End()
		return nil, fmt.Errorf("fleet: unpack image: %w", err)
	}
	st.End("files", len(fs.Files))
	scanSpan.SetAttr("product", img.Header.Product)
	if opts.Analysis.Log != nil {
		opts.Analysis.Log = opts.Analysis.Log.With(
			"image", img.Header.Product, "version", img.Header.Version)
	}

	candidates := opts.Candidates(fs.Files)

	rep := &ImageReport{
		Vendor:     img.Header.Vendor,
		Product:    img.Header.Product,
		Version:    img.Header.Version,
		Year:       img.Header.Year,
		Arch:       img.Header.Arch.String(),
		Candidates: len(candidates),
		Workers:    opts.Workers,
		Binaries:   make([]BinaryScan, len(candidates)),
	}

	// completed collects finished binaries in completion order for the
	// watchdog's partial report (rep.Binaries has holes mid-scan).
	var (
		completedMu sync.Mutex
		completed   []BinaryScan
	)

	stopWatchdog := opts.ArmWatchdog(partialReportWriter(rep, &completedMu, &completed))
	defer stopWatchdog()
	em := opts.Analysis.Events

	var progressMu sync.Mutex
	done := 0
	ScanEach(ctx, candidates, opts, func(i int, bs BinaryScan) {
		rep.Binaries[i] = bs
		completedMu.Lock()
		completed = append(completed, bs)
		completedMu.Unlock()
		progressMu.Lock()
		done++
		n := done
		if opts.Progress != nil {
			opts.Progress(n, len(candidates))
		}
		progressMu.Unlock()
		// n is mutex-ordered (unique per binary), so the progress
		// event multiset is deterministic for any worker count.
		em.Progress("binaries", n, len(candidates))
	})

	rep.aggregate()
	rep.Wall = time.Since(start)
	if opts.Cache != nil {
		rep.Cache = opts.Cache.Stats()
	}
	rep.Runtime = obs.CaptureRuntimeStats()
	scanSpan.SetAttr("candidates", rep.Candidates)
	scanSpan.End()
	recordScanMetrics(opts.Analysis.Metrics, rep)
	if opts.Analysis.Log != nil {
		opts.Analysis.Log.Info("scan-image done",
			"candidates", rep.Candidates, "scanned", rep.Scanned,
			"cached", rep.Cached, "failed", rep.Failed,
			"vulnerabilities", rep.Vulnerabilities,
			"seconds", rep.Wall.Seconds())
	}
	return rep, nil
}

// Prepare validates opts and fills in the defaults every scan entry
// point shares (ScanImage here, diff.Diff over an image pair): Workers 0
// becomes GOMAXPROCS, per-binary Parallelism 0 becomes 1, the summary
// store rides on the analysis options, and a configured cache gets a
// single-flight group so concurrent workers analyze each distinct binary
// once.
func (o *Options) Prepare() error {
	if o.Workers < 0 {
		return ErrBadWorkers
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Analysis.Parallelism == 0 {
		o.Analysis.Parallelism = 1
	}
	if o.SummaryStore != nil {
		o.Analysis.SummaryStore = o.SummaryStore
	}
	if o.Cache != nil {
		o.inflight = newFlightGroup()
	}
	return nil
}

// Candidates returns the FWELF executables among an unpacked root
// filesystem's files that PathFilter keeps, in rootfs order.
func (o *Options) Candidates(files []firmware.File) []firmware.File {
	var out []firmware.File
	for _, f := range files {
		if !bytes.HasPrefix(f.Data, image.Magic[:]) {
			continue
		}
		if o.PathFilter != nil && !o.PathFilter(f.Path) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// ArmWatchdog starts the stall watchdog StallTimeout asks for and
// returns the function that stops it (a no-op when StallTimeout is 0).
// A scan armed without a caller-supplied journal gets a private one, so
// the watchdog has an event stream to watch. partial, when non-nil,
// writes the partial report into each stall bundle. Every ScanOne run
// with o afterwards is abandoned as StatusStalled when the watchdog
// fires.
func (o *Options) ArmWatchdog(partial func(io.Writer) error) (stop func()) {
	if o.StallTimeout <= 0 {
		return func() {}
	}
	if o.Analysis.Events == nil {
		o.Analysis.Events = events.NewJournal(0).Emitter("")
	}
	em := o.Analysis.Events
	o.watchdog = events.StartWatchdog(events.WatchdogConfig{
		Journal:     em.Journal(),
		Job:         em.Job(),
		Deadline:    o.StallTimeout,
		DebugDir:    o.DebugDir,
		Fingerprint: dataflow.OptionsFingerprint(o.Analysis, o.FilterTag),
		Tracer:      o.Analysis.Tracer,
		Metrics:     o.Analysis.Metrics,
		Partial:     partial,
	})
	return o.watchdog.Stop
}

// ScanEach runs ScanOne over files on a pool of at most opts.Workers
// workers and hands each result to record, together with the file's
// index. record runs on the worker goroutines, so it must synchronize
// any state it shares.
func ScanEach(ctx context.Context, files []firmware.File, opts Options, record func(i int, bs BinaryScan)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := opts.Workers
	if workers > len(files) {
		workers = len(files)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				record(i, ScanOne(ctx, files[i], opts))
			}
		}()
	}
	for i := range files {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// partialReportWriter returns the watchdog's partial-report callback: a
// JSON snapshot of the binaries completed so far, flagged partial so a
// bundle's report.json is never mistaken for a finished scan's.
func partialReportWriter(rep *ImageReport, mu *sync.Mutex, completed *[]BinaryScan) func(io.Writer) error {
	return func(w io.Writer) error {
		mu.Lock()
		snap := append([]BinaryScan(nil), (*completed)...)
		mu.Unlock()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Partial    bool         `json:"partial"`
			Vendor     string       `json:"vendor"`
			Product    string       `json:"product"`
			Version    string       `json:"version"`
			Candidates int          `json:"candidates"`
			Completed  int          `json:"completed"`
			Binaries   []BinaryScan `json:"binaries"`
		}{true, rep.Vendor, rep.Product, rep.Version, rep.Candidates, len(snap), snap})
	}
}

// recordScanMetrics publishes one finished image scan's outcome counters
// and the cache hit ratio. Every registry call is nil-safe on reg.
func recordScanMetrics(reg *obs.Registry, rep *ImageReport) {
	for _, oc := range []struct {
		status string
		n      int
	}{
		{"ok", rep.Scanned}, {"cached", rep.Cached},
		{"failed", rep.Failed}, {"stalled", rep.Stalled},
		{"skipped", rep.Skipped},
	} {
		if oc.n > 0 {
			reg.Counter("dtaint_fleet_binaries_total",
				"Binaries scanned by the fleet orchestrator, by outcome.",
				obs.Labels{"status": oc.status}).Add(uint64(oc.n))
		}
	}
	reg.Counter("dtaint_fleet_images_total",
		"Firmware images scanned by the fleet orchestrator.", nil).Inc()
	reg.Counter("dtaint_fleet_vulnerabilities_total",
		"Deduplicated vulnerabilities found by fleet scans.", nil).Add(uint64(rep.Vulnerabilities))
	if total := rep.Cache.Hits + rep.Cache.Misses; total > 0 {
		reg.Gauge("dtaint_cache_hit_ratio",
			"Report cache hit ratio over the cache's lifetime.",
			nil).Set(float64(rep.Cache.Hits) / float64(total))
	}
}

// ScanOne is the scan unit every scan entry point runs per binary:
// report-cache lookup (with single-flight over identical binaries), then
// a fresh analysis under panic isolation, the per-binary deadline and
// the stall watchdog, inside a scan-binary span. A cache hit emits a
// cache-hit event and has zero Duration; every other outcome that ran
// the analysis records its wall clock. opts must have been through
// Prepare (and ArmWatchdog, for a stall-guarded scan).
func ScanOne(ctx context.Context, f firmware.File, opts Options) BinaryScan {
	sum := sha256.Sum256(f.Data)
	bs := BinaryScan{Path: f.Path, SHA256: hex.EncodeToString(sum[:])}

	span := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "scan-binary",
		obs.KV("path", f.Path))
	opts.Analysis.ParentSpan = span
	// Scope this worker's events to the binary; derived emitters keep
	// their own progress meters, so concurrent binaries never share an
	// ETA window (opts is a copy — the caller's emitter is untouched).
	opts.Analysis.Events = opts.Analysis.Events.WithPath(f.Path)
	if opts.Analysis.Log != nil {
		opts.Analysis.Log = opts.Analysis.Log.With("binary", f.Path, "sha", bs.SHA256[:12])
	}
	defer func() {
		span.SetAttr("status", string(bs.Status))
		span.End()
		if opts.Analysis.Log != nil {
			opts.Analysis.Log.Info("scan-binary done",
				"status", string(bs.Status), "seconds", bs.Duration.Seconds())
		}
	}()

	if ctx.Err() != nil {
		bs.Status = StatusSkipped
		bs.Error = ctx.Err().Error()
		return bs
	}

	cacheable := opts.Cache != nil && (opts.Analysis.Filter == nil || opts.FilterTag != "")
	var key string
	if cacheable {
		key = Key(f.Data, dataflow.OptionsFingerprint(opts.Analysis, opts.FilterTag))
		for {
			if v, ok := opts.Cache.Get(key); ok {
				bs.Status = StatusCached
				bs.Analysis = v
				opts.Analysis.Events.Emit(events.ScanEvent{
					Type:  events.TypeCacheHit,
					Attrs: map[string]any{"sha256": bs.SHA256},
				})
				return bs
			}
			if opts.inflight.begin(key) {
				break // leader: analyze and fill the cache
			}
			// An identical binary is being analyzed by another worker
			// right now: wait for it and retry the cache. If the leader
			// failed (no cache entry), the retry misses and this worker
			// takes over as leader.
			opts.inflight.wait(key)
		}
		defer opts.inflight.finish(key)
	}

	type outcome struct {
		an  *BinaryAnalysis
		err error
	}
	ch := make(chan outcome, 1)
	t0 := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("analysis panicked: %v", r)}
			}
		}()
		an, err := analyze(f, opts.Analysis)
		ch <- outcome{an: an, err: err}
	}()

	var timeout <-chan time.Time
	if opts.PerBinaryTimeout > 0 {
		t := time.NewTimer(opts.PerBinaryTimeout)
		defer t.Stop()
		timeout = t.C
	}
	// A nil watchdog yields a nil channel — the case never fires. The
	// channel is captured once: a stall mid-analysis kills this binary,
	// while binaries started after the watchdog re-arms get a fresh one.
	stalled := opts.watchdog.Stalled()
	select {
	case out := <-ch:
		bs.Duration = time.Since(t0)
		if out.err != nil {
			bs.Status = StatusFailed
			bs.Error = out.err.Error()
			return bs
		}
		bs.Status = StatusOK
		bs.Analysis = out.an
		if cacheable {
			opts.Cache.Put(key, out.an)
		}
	case <-timeout:
		bs.Duration = time.Since(t0)
		bs.Status = StatusTimeout
		bs.Error = fmt.Sprintf("analysis exceeded %v", opts.PerBinaryTimeout)
	case <-stalled:
		bs.Duration = time.Since(t0)
		bs.Status = StatusStalled
		bs.Error = fmt.Sprintf("watchdog: no events for %v; analysis abandoned", opts.StallTimeout)
	case <-ctx.Done():
		bs.Duration = time.Since(t0)
		bs.Status = StatusFailed
		bs.Error = ctx.Err().Error()
	}
	return bs
}

// analyze is the per-binary pipeline entry; a variable so tests can
// substitute pathological analyzers (panics, hangs) without crafting
// binaries that break the real engine.
var analyze = analyzeBinary

// AnalyzeBinary runs the full single-binary pipeline on one rootfs file
// — the same entry the scan pool uses (including any test substitute).
// It is the one per-binary pipeline: the public single-binary Analyzer
// runs it too, so every report surface derives from the same result.
func AnalyzeBinary(f firmware.File, aopts dataflow.Options) (*BinaryAnalysis, error) {
	return analyze(f, aopts)
}

// analyzeBinary runs the full single-binary pipeline and packages the
// result into the serializable wire form.
func analyzeBinary(f firmware.File, aopts dataflow.Options) (*BinaryAnalysis, error) {
	st := aopts.StartStage("parse-image", obs.KV("bytes", len(f.Data)))
	bin, err := image.Parse(f.Data)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("parse %s: %w", f.Path, err)
	}
	st.End("binary", bin.Name, "arch", bin.Arch.String())
	st = aopts.StartStage("build-cfg")
	prog, err := cfg.Build(bin)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("recover CFG of %s: %w", f.Path, err)
	}
	stats := prog.Stats()
	st.End("functions", stats.Functions, "blocks", stats.Blocks)
	res, err := dataflow.Analyze(prog, aopts)
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", f.Path, err)
	}
	an := &BinaryAnalysis{
		Binary:            bin.Name,
		Arch:              bin.Arch.String(),
		Functions:         stats.Functions,
		Blocks:            stats.Blocks,
		CallEdges:         stats.CallGraphEdges,
		FunctionsAnalyzed: res.FunctionsAnalyzed,
		SinkCount:         res.SinkCount,
		IndirectResolved:  len(res.Resolutions),
		DefPairs:          res.DefPairCount,
		Truncated:         res.Truncated,
		SSATime:           res.SSATime,
		DDGTime:           res.DDGTime,
		DDGWorkers:        res.Parallel.Workers,
		SCCComponents:     res.Parallel.Components,
		CriticalPath:      res.Parallel.CriticalPath,
		SummaryHits:       res.SumStore.Hits,
		SummaryMisses:     res.SumStore.Misses,
	}
	for _, tf := range res.Findings {
		wf := Finding{
			Class:     tf.Class.String(),
			Sink:      tf.Sink,
			SinkFunc:  tf.SinkFunc,
			SinkAddr:  tf.SinkAddr,
			Source:    tf.Source,
			Sanitized: tf.Sanitized,
			Evidence:  append([]string(nil), tf.Evidence...),
		}
		for _, s := range tf.Path {
			wf.Path = append(wf.Path, s.String())
		}
		an.Findings = append(an.Findings, wf)
	}
	return an, nil
}
