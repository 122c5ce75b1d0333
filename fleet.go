package dtaint

import (
	"context"
	"time"

	"dtaint/internal/fleet"
	"dtaint/internal/sumstore"
)

// This file is the public face of the fleet-scale scanning subsystem
// (internal/fleet): whole-image scans over a bounded worker pool with a
// content-addressed report cache, the workload shape of the paper's
// evaluation (six study images, 115 binaries; a 6,529-image population).

// BinaryStatus classifies one binary's outcome in an image scan.
type BinaryStatus = fleet.Status

// Binary scan outcomes.
const (
	// BinaryOK: analyzed fresh in this run.
	BinaryOK = fleet.StatusOK
	// BinaryCached: report served from the content-addressed cache.
	BinaryCached = fleet.StatusCached
	// BinaryFailed: the analysis errored or panicked.
	BinaryFailed = fleet.StatusFailed
	// BinaryTimeout: the per-binary deadline elapsed.
	BinaryTimeout = fleet.StatusTimeout
	// BinaryStalled: the stall watchdog (WithFleetStallTimeout) fired and
	// the in-flight analysis was abandoned — reported distinctly so a
	// killed analysis never reads as an empty success.
	BinaryStalled = fleet.StatusStalled
	// BinarySkipped: the scan was cancelled before this binary started.
	BinarySkipped = fleet.StatusSkipped
)

// BinaryScan is one rootfs executable's entry in an ImageReport: its
// path, content hash, outcome, and — when the status is BinaryOK or
// BinaryCached — the full per-binary Report in Analysis.
type BinaryScan = fleet.BinaryScan

// CacheStats snapshots a report cache's or summary store's counters.
type CacheStats = fleet.CacheStats

// ImageReport aggregates a whole firmware image's scan: identity from
// the container header, per-binary reports in rootfs path order, and
// Table VI-style totals. Timings aside, it is identical for every
// worker count. It is also what dtaintd serves for a scan job.
type ImageReport = fleet.ImageReport

// FleetTotals are the fleet-wide totals of a corpus scan.
type FleetTotals = fleet.FleetTotals

// FleetCache is a process-wide content-addressed report cache shared
// across image scans: key = SHA-256(binary bytes) + analyzer-options
// fingerprint. Fleets of firmware images share binaries heavily (every
// image ships busybox; the same daemons recur across models), so a
// shared cache collapses a fleet scan to one analysis per distinct
// binary. Safe for concurrent use.
type FleetCache struct {
	c *fleet.Cache
}

// NewFleetCache returns a cache holding at most maxEntries reports in
// memory (<= 0 selects a default). A non-empty dir adds a persistent
// on-disk tier that survives process restarts.
func NewFleetCache(maxEntries int, dir string) (*FleetCache, error) {
	c, err := fleet.NewCache(maxEntries, dir)
	if err != nil {
		return nil, err
	}
	return &FleetCache{c: c}, nil
}

// Stats returns the cache's counters.
func (c *FleetCache) Stats() CacheStats { return c.c.Stats() }

// SummaryStore is a process-wide content-addressed store of per-function
// analysis summaries, shared across scans: key = fingerprint of the
// function's bytes, ISA, and the analysis-options version. Where the
// FleetCache collapses duplicate binaries, the SummaryStore collapses
// duplicate functions across distinct binaries — firmware fleets reuse
// the same SDK and libc code in binary after binary, so each unique
// function is symbolically executed once per corpus. Results are
// bit-identical with and without a store. Safe for concurrent use.
type SummaryStore struct {
	s *sumstore.Store
}

// NewSummaryStore returns a store holding at most maxEntries summaries
// in memory (<= 0 selects a default). A non-empty dir adds a persistent
// on-disk tier that survives process restarts.
func NewSummaryStore(maxEntries int, dir string) (*SummaryStore, error) {
	s, err := sumstore.NewStore(maxEntries, dir)
	if err != nil {
		return nil, err
	}
	return &SummaryStore{s: s}, nil
}

// SummaryStoreStats snapshots a summary store's counters: the same
// two-tier counters as the report cache's.
type SummaryStoreStats = CacheStats

// Stats returns the store's counters.
func (s *SummaryStore) Stats() SummaryStoreStats { return s.s.Stats() }

// FleetOption configures an image scan beyond the Analyzer's own
// options.
type FleetOption func(*fleet.Options)

// fleetOptions builds the scan options: the Analyzer's analysis options
// with every FleetOption applied. Fleet, corpus and diff scans all start
// here.
func (a *Analyzer) fleetOptions(opts []FleetOption) fleet.Options {
	fo := fleet.Options{Analysis: a.opts}
	for _, o := range opts {
		o(&fo)
	}
	return fo
}

// WithFleetWorkers bounds how many binaries are analyzed concurrently
// (0 = GOMAXPROCS). Per-binary analysis parallelism is set separately
// via WithParallelism on the Analyzer and defaults to 1 inside a fleet
// scan.
func WithFleetWorkers(n int) FleetOption {
	return func(o *fleet.Options) { o.Workers = n }
}

// WithFleetTimeout caps each binary's analysis wall-clock; timed-out
// binaries are reported as BinaryTimeout without failing the image.
func WithFleetTimeout(d time.Duration) FleetOption {
	return func(o *fleet.Options) { o.PerBinaryTimeout = d }
}

// WithFleetCache attaches a shared report cache to the scan.
func WithFleetCache(cache *FleetCache) FleetOption {
	return func(o *fleet.Options) {
		if cache != nil {
			o.Cache = cache.c
		}
	}
}

// WithFleetSummaryStore attaches a shared function-summary store to the
// scan: binaries that share code (same SDK, same libc) re-use each
// other's per-function analysis results.
func WithFleetSummaryStore(store *SummaryStore) FleetOption {
	return func(o *fleet.Options) {
		if store != nil {
			o.SummaryStore = store.s
		}
	}
}

// WithFleetPathFilter restricts the scan to rootfs paths for which keep
// returns true (e.g. only /usr/sbin daemons).
func WithFleetPathFilter(keep func(path string) bool) FleetOption {
	return func(o *fleet.Options) { o.PathFilter = keep }
}

// WithFleetFilterTag names the Analyzer's function filter for cache-key
// purposes. Function values cannot be fingerprinted, so a scan whose
// Analyzer has a filter set bypasses the cache unless a tag identifies
// the filter; two scans with the same tag are assumed to use the same
// filter.
func WithFleetFilterTag(tag string) FleetOption {
	return func(o *fleet.Options) { o.FilterTag = tag }
}

// WithFleetProgress registers a callback invoked after each binary
// completes with the running done count and the candidate total. Calls
// are serialized.
func WithFleetProgress(fn func(done, total int)) FleetOption {
	return func(o *fleet.Options) { o.Progress = fn }
}

// WithFleetStallTimeout arms a stall watchdog over the scan's event
// stream: when no telemetry event is journaled for d, the watchdog
// emits a stall event, captures a diagnostic bundle (WithFleetDebugDir)
// and abandons the in-flight binaries — they report BinaryStalled,
// never an empty success. Pick d well above the slowest single
// function's analysis time; 0 (the default) disables the watchdog.
func WithFleetStallTimeout(d time.Duration) FleetOption {
	return func(o *fleet.Options) { o.StallTimeout = d }
}

// WithFleetDebugDir names the directory that receives one diagnostic
// bundle per watchdog stall: goroutine dump, Chrome trace, metrics
// snapshot, options fingerprint, event journal, and the partial report
// of the binaries completed so far.
func WithFleetDebugDir(dir string) FleetOption {
	return func(o *fleet.Options) { o.DebugDir = dir }
}

// ScanFirmwareFleet unpacks a firmware image and analyzes every
// executable in its root filesystem across a bounded worker pool — the
// whole-image counterpart of AnalyzeFirmware. One corrupt binary cannot
// kill the scan (panic isolation, per-binary timeouts), cancelling ctx
// stops new work, and a FleetCache shared across calls makes re-scans
// and binary-sharing fleets cheap. The Analyzer's own options (filters,
// ablations, custom sources/sinks, parallelism) apply to every binary.
func (a *Analyzer) ScanFirmwareFleet(ctx context.Context, data []byte, opts ...FleetOption) (*ImageReport, error) {
	return fleet.ScanImage(ctx, data, a.fleetOptions(opts))
}

// CorpusReport aggregates a whole-corpus scan: per-image reports in
// input order, fleet totals, the cross-image binary dedup accounting,
// and final snapshots of the shared cache tiers.
type CorpusReport = fleet.CorpusReport

// ScanFirmwareCorpus scans a corpus of firmware images with one report
// cache and one summary store shared across every image — each unique
// binary is analyzed once per corpus and each unique function is
// symbolically executed once per corpus. Supply the tiers with
// WithFleetCache / WithFleetSummaryStore to persist or reuse them across
// calls; otherwise corpus-lifetime in-memory tiers are created. Images
// are scanned sequentially, each fanning its binaries across the worker
// pool; cancelling ctx stops new work.
func (a *Analyzer) ScanFirmwareCorpus(ctx context.Context, images [][]byte, opts ...FleetOption) (*CorpusReport, error) {
	return fleet.ScanCorpus(ctx, images, a.fleetOptions(opts))
}
