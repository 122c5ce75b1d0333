// Command dtaintd serves the fleet-scale scanning subsystem over HTTP:
// upload a firmware image, poll the job, fetch the per-image report.
//
//	dtaintd -addr :8214 -cache-dir /var/cache/dtaint
//
//	curl -X POST --data-binary @dir645.fwimg http://localhost:8214/v1/scan
//	curl -X POST -F firmware=@dir645.fwimg -F vocab=@vendor.json http://localhost:8214/v1/scan
//	curl -X POST -F old=@fw-1.0.0.fwimg -F new=@fw-1.0.1.fwimg http://localhost:8214/v1/diff
//	curl http://localhost:8214/v1/jobs/job-000001
//	curl http://localhost:8214/v1/jobs/job-000001/report
//	curl http://localhost:8214/v1/metrics
//
// POST /v1/diff queues a differential scan of two firmware versions
// (multipart, required "old" and "new" parts, optional "vocab" part).
// It shares the scan queue, the report cache, and the function-summary
// store: binaries unchanged since a prior scan replay from cache,
// changed ones re-analyze with unchanged functions replaying from the
// store, and the job's report classifies every finding as new, fixed,
// or persisting across the two versions.
//
// The second upload form is multipart: the optional vocab part is a
// JSON source/sink/sanitizer vocabulary (DESIGN.md §3.5) overriding
// the server's default for that job only; -vocab file.json changes
// the server-wide default. Malformed specs answer 400 at accept time
// with a line-precise error. The vocabulary digest is part of the
// cache fingerprints, so jobs with different vocabularies never share
// cached results.
//
// Jobs run one at a time in arrival order; each job fans its image's
// binaries out across -workers analyzer goroutines. The job queue is
// bounded (-queue); a full queue answers 429 so load sheds at the edge
// instead of piling up in memory. Reports are cached content-addressed
// (SHA-256 of the binary plus the analyzer-options fingerprint), so
// re-scanning an image — or a fleet of images sharing binaries — is
// served from cache; -cache-dir persists the cache across restarts.
// Below the report cache, a function-summary store shared across all
// jobs replays per-function analysis for code recurring across distinct
// binaries (same SDK, same libc); -summary-size bounds its in-memory
// tier and -summary-dir persists it across restarts. SIGINT/SIGTERM
// shuts down gracefully: the listener stops, the running job drains,
// queued jobs are failed with a shutdown error.
//
// Live telemetry: every job appends typed, sequence-numbered events
// (stage/binary lifecycle, decile progress with ETA, findings, stalls)
// to a bounded in-memory journal (-journal sets the ring size).
// GET /v1/jobs/{id}/events streams one job as Server-Sent Events —
// buffered history first, then live — closing after the job's terminal
// event; a reconnecting client resumes exactly where it left off by
// sending the standard Last-Event-ID header. GET /v1/events is the
// all-jobs firehose. -stall-timeout arms a per-job watchdog, for scan
// and diff jobs alike: a job journaling no events for that long has its
// in-flight binaries abandoned (reported as status "stalled" in a scan,
// as a pair error naming the watchdog in a diff, never an empty
// success) and,
// with -debug-dir, a diagnostic bundle written to disk. GET /healthz is
// the liveness probe; GET /readyz answers 503 once graceful drain
// begins (-drain-notice holds the listener open so balancers see the
// flip) or when the job queue is saturated.
//
// Observability: /v1/metrics serves the service counters plus the
// analysis registry as JSON, or as Prometheus text exposition when the
// client sends "Accept: text/plain" (what Prometheus scrapers do).
// -log-level/-log-format select structured stderr logging (log/slog)
// with per-job and per-binary attrs. -pprof-addr exposes the standard
// net/http/pprof profiles on a second listener kept off the public API
// address:
//
//	dtaintd -addr :8214 -pprof-addr 127.0.0.1:6060 -log-format json
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"dtaint/internal/dataflow"
	"dtaint/internal/fleet"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8214", "listen address (port 0 picks an ephemeral port)")
		workers     = flag.Int("workers", 0, "binaries analyzed concurrently per job (0 = GOMAXPROCS)")
		queueCap    = flag.Int("queue", 16, "maximum queued scan jobs before 429")
		jobTimeout  = flag.Duration("binary-timeout", 10*time.Minute, "per-binary analysis timeout (0 = none)")
		cacheSize   = flag.Int("cache-size", 1024, "in-memory report cache entries")
		cacheDir    = flag.String("cache-dir", "", "persistent report cache directory (empty = memory only)")
		sumSize     = flag.Int("summary-size", 4096, "in-memory function-summary store entries")
		sumDir      = flag.String("summary-dir", "", "persistent function-summary store directory (empty = memory only)")
		maxUpload   = flag.Int64("max-upload", 256<<20, "maximum firmware upload bytes")
		noAlias     = flag.Bool("no-alias", false, "disable pointer-alias recognition (Algorithm 1)")
		noSSE       = flag.Bool("no-sse", false, "disable structured-symbolic-expression alias classes (fall back to Algorithm 1 + pure structsim)")
		noSim       = flag.Bool("no-structsim", false, "disable data-structure similarity resolution")
		vocabPath   = flag.String("vocab", "", "default source/sink/sanitizer vocabulary spec (JSON; empty = embedded default)")
		drainWait   = flag.Duration("drain", 5*time.Minute, "shutdown grace for the running job")
		drainNotice = flag.Duration("drain-notice", 0, "delay between flipping /readyz to 503 and stopping the listener")
		journalSize = flag.Int("journal", events.DefaultJournalSize, "event journal ring size for SSE streaming (0 = telemetry off)")
		stallWait   = flag.Duration("stall-timeout", 0, "per-job stall watchdog deadline: no telemetry events for this long abandons the binary (0 = off)")
		debugDir    = flag.String("debug-dir", "", "directory receiving one diagnostic bundle per watchdog stall (empty = off)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()
	opts := serveOptions{
		addr: *addr, workers: *workers, queueCap: *queueCap,
		cacheSize: *cacheSize, cacheDir: *cacheDir, maxUpload: *maxUpload,
		sumSize: *sumSize, sumDir: *sumDir,
		jobTimeout: *jobTimeout, drainWait: *drainWait, drainNotice: *drainNotice,
		journalSize: *journalSize, stallWait: *stallWait, debugDir: *debugDir,
		noAlias: *noAlias, noSSE: *noSSE, noSim: *noSim, vocabPath: *vocabPath,
		logLevel: *logLevel, logFormat: *logFormat, pprofAddr: *pprofAddr,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "dtaintd:", err)
		os.Exit(1)
	}
}

// serveOptions carries the parsed flags into run.
type serveOptions struct {
	addr        string
	workers     int
	queueCap    int
	cacheSize   int
	cacheDir    string
	sumSize     int
	sumDir      string
	maxUpload   int64
	jobTimeout  time.Duration
	drainWait   time.Duration
	drainNotice time.Duration
	journalSize int
	stallWait   time.Duration
	debugDir    string
	noAlias     bool
	noSSE       bool
	noSim       bool
	vocabPath   string
	logLevel    string
	logFormat   string
	pprofAddr   string
}

// analysisOptions are the options every job starts from: the defaults
// dtaint.New builds (the paper's loop-once heuristic) plus the ablation
// flags. Sharing the CLI's defaults keeps the two front ends' findings
// equal and their options fingerprints equal, so report caches and
// summary stores filled by one warm the other.
func analysisOptions(o serveOptions) dataflow.Options {
	return dataflow.Options{
		Symexec:          symexec.Options{LoopOnce: true},
		DisableAlias:     o.noAlias,
		DisableSSE:       o.noSSE,
		DisableStructSim: o.noSim,
	}
}

func run(o serveOptions) error {
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	logger, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	cache, err := fleet.NewCache(o.cacheSize, o.cacheDir)
	if err != nil {
		return err
	}
	store, err := sumstore.NewStore(o.sumSize, o.sumDir)
	if err != nil {
		return err
	}
	cfg := config{
		workers:       o.workers,
		queueCap:      o.queueCap,
		binaryTimeout: o.jobTimeout,
		maxUpload:     o.maxUpload,
		cache:         cache,
		sumStore:      store,
		metrics:       obs.NewRegistry(),
		log:           logger,
		stallTimeout:  o.stallWait,
		debugDir:      o.debugDir,
	}
	if o.journalSize > 0 {
		cfg.journal = events.NewJournal(o.journalSize)
	}
	cfg.analysis = analysisOptions(o)
	if o.vocabPath != "" {
		spec, err := vocab.Load(o.vocabPath)
		if err != nil {
			return err
		}
		v, err := taint.CompileVocabulary(spec)
		if err != nil {
			return err
		}
		cfg.analysis.Vocab = v
	}
	cfg.analysis.Metrics = cfg.metrics
	cfg.analysis.Log = logger

	s := newServer(cfg)
	s.start()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The ephemeral-port form ("host:0") is how the smoke test and
	// scripted clients find the server: this line is the contract.
	fmt.Printf("dtaintd: listening on http://%s\n", ln.Addr())

	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Printf("dtaintd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		// The blank net/http/pprof import registered its handlers on
		// http.DefaultServeMux; serve that mux on the side listener only,
		// so profiles never leak onto the public API address.
		go func() { _ = http.Serve(pln, http.DefaultServeMux) }()
	}

	srv := &http.Server{Handler: s.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("dtaintd: %v, draining\n", sig)
		// Flip /readyz to 503 first, then hold the listener open for the
		// notice window so load balancers (and the smoke test) observe
		// the not-ready answer before connections start being refused.
		s.setDraining()
		if o.drainNotice > 0 {
			time.Sleep(o.drainNotice)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	// Shutdown waits for idle connections but not for open SSE streams;
	// close them outright so drain cannot hang on a watching client.
	_ = srv.Close()
	s.shutdown(o.drainWait)
	fmt.Println("dtaintd: stopped")
	return nil
}
