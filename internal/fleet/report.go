// Package fleet scans whole firmware images — and fleets of images —
// instead of one executable per process. It is the serving layer the
// paper's evaluation implies: Table II's six study images carry 115
// binaries, and the Section II-A population holds 6,529 images, so the
// unit of work at scale is "image" (or "device fleet"), not "binary".
//
// The package provides three pieces:
//
//   - a job orchestrator (ScanImage) that unpacks a firmware container,
//     enumerates candidate FWELF executables in its root filesystem, and
//     fans them out across a bounded worker pool with per-binary
//     timeouts, panic isolation, and context cancellation;
//   - a content-addressed report cache (Cache) keyed by the SHA-256 of
//     the binary bytes plus an analyzer-options fingerprint, with an
//     in-memory LRU tier and an optional on-disk tier, so re-scanning an
//     image — or a fleet of images sharing binaries — skips redundant
//     analysis;
//   - an aggregation layer (ImageReport) that merges per-binary results
//     into Table VI-style per-image totals.
//
// Results are deterministic: for a fixed image and analysis options the
// ImageReport is identical for any worker count (the per-binary analyzer
// already guarantees this; the orchestrator preserves input order and
// keeps aggregation order-independent).
package fleet

import (
	"fmt"
	"strings"
	"time"

	"dtaint/internal/obs"
	"dtaint/internal/taint"
)

// Status classifies the outcome of one binary's scan.
type Status string

// Binary scan outcomes.
const (
	// StatusOK: analyzed fresh in this run.
	StatusOK Status = "ok"
	// StatusCached: report served from the content-addressed cache.
	StatusCached Status = "cached"
	// StatusFailed: the analysis returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusTimeout: the per-binary deadline elapsed before the analysis
	// finished.
	StatusTimeout Status = "timeout"
	// StatusStalled: the stall watchdog fired (no telemetry events for
	// the configured deadline) and the in-flight analysis was abandoned.
	// Distinct from StatusTimeout so a watchdog kill never masquerades
	// as an empty success or an ordinary deadline.
	StatusStalled Status = "stalled"
	// StatusSkipped: the scan was cancelled before this binary started.
	StatusSkipped Status = "skipped"
)

// Finding is one (source, path, sink) tuple: the one form every report
// carries it in — the single-binary Analyzer, fleet and corpus scans,
// diffs, dtaintd and the report cache.
type Finding struct {
	// Class is the vulnerability class implied by the sink.
	Class string `json:"class"`
	// Sink is the sensitive function (Table I) or "loop" for loop copies.
	Sink string `json:"sink"`
	// SinkFunc is the firmware function containing the sink; SinkAddr
	// the sink callsite address.
	SinkFunc string `json:"sinkFunc"`
	SinkAddr uint32 `json:"sinkAddr"`
	// Source is the attacker-controlled input function.
	Source string `json:"source"`
	// Path is the call-chain from the sink function up to where the
	// taint enters, innermost first.
	Path []string `json:"path"`
	// Sanitized reports whether a constraint on the tainted data was
	// found; sanitized paths are not vulnerabilities.
	Sanitized bool `json:"sanitized"`
	// Evidence is the constraint/interval chain behind the verdict:
	// which proven bound (or absence of one) decided Sanitized and Class.
	Evidence []string `json:"evidence,omitempty"`
}

// Key returns the canonical deduplication key (shared with every other
// report layer via taint.VulnKey).
func (f Finding) Key() string {
	return taint.VulnKey(f.SinkFunc, f.Sink, f.SinkAddr, f.Class)
}

// CWE returns the finding's Common Weakness Enumeration identifier:
// CWE-121 (stack-based buffer overflow), CWE-78 (OS command injection),
// CWE-193 (off-by-one error), CWE-197 (numeric truncation error),
// CWE-134 (externally-controlled format string), or CWE-22 (path
// traversal).
func (f Finding) CWE() string {
	switch f.Class {
	case "command-injection":
		return "CWE-78"
	case "off-by-one":
		return "CWE-193"
	case "length-truncation":
		return "CWE-197"
	case "format-string":
		return "CWE-134"
	case "path-traversal":
		return "CWE-22"
	}
	return "CWE-121"
}

// String renders the finding as a one-line report.
func (f Finding) String() string {
	state := "VULNERABLE"
	if f.Sanitized {
		state = "sanitized"
	}
	return fmt.Sprintf("[%s] %s -> %s in %s@%#x (%s) via %s",
		state, f.Source, f.Sink, f.SinkFunc, f.SinkAddr, f.Class,
		strings.Join(f.Path, " <- "))
}

// BinaryAnalysis is the complete, serializable result of analyzing one
// executable. It is the cache value, the per-binary payload of the HTTP
// ImageReport and the public single-binary Report, so a cached scan
// reproduces exactly what a fresh scan would have reported (timings
// excepted: cached entries keep the timings of the run that produced
// them).
type BinaryAnalysis struct {
	// Binary is the executable's name; Arch its architecture flavor
	// ("ARM" or "MIPS").
	Binary string `json:"binary"`
	Arch   string `json:"arch"`
	// Functions, Blocks and CallEdges summarize the recovered program
	// (the Table II columns).
	Functions int `json:"functions"`
	Blocks    int `json:"blocks"`
	CallEdges int `json:"callEdges"`
	// FunctionsAnalyzed is the size of the analyzed subset; SinkCount
	// the number of static sensitive-sink sites; IndirectResolved the
	// indirect calls bound by layout similarity.
	FunctionsAnalyzed int `json:"functionsAnalyzed"`
	SinkCount         int `json:"sinkCount"`
	IndirectResolved  int `json:"indirectResolved"`
	// DefPairs is the total number of definition pairs in the generated
	// data flow (a size measure of the DDG).
	DefPairs int `json:"defPairs"`
	// Truncated counts functions whose symbolic exploration hit the
	// state budget (their summaries are partial).
	Truncated int `json:"truncated"`
	// SSATime and DDGTime are the two analysis phases' durations (the
	// Table VII columns).
	SSATime time.Duration `json:"ssaNanos"`
	DDGTime time.Duration `json:"ddgNanos"`
	// DDGWorkers, SCCComponents and CriticalPath describe the parallel
	// bottom-up phase: the worker count its SCC-DAG scheduler ran with,
	// the number of call-graph components scheduled, and the longest
	// chain of dependent components (the parallelism ceiling).
	DDGWorkers    int `json:"ddgWorkers"`
	SCCComponents int `json:"sccComponents"`
	CriticalPath  int `json:"criticalPath"`
	// SummaryHits/SummaryMisses count the producing run's function-summary
	// store lookups (both zero when the run had no store). Like the
	// timings, cached entries keep the values of the run that produced
	// them — they are cost attribution, not part of the analysis result.
	SummaryHits   int `json:"summaryHits,omitempty"`
	SummaryMisses int `json:"summaryMisses,omitempty"`
	// Runtime snapshots the Go runtime when a single-binary analysis
	// finished. Scans leave it nil (the image report carries one
	// snapshot for all binaries), so cached entries never hold it.
	Runtime *obs.RuntimeStats `json:"runtime,omitempty"`
	// Findings are all discovered source→sink paths, including
	// sanitized ones.
	Findings []Finding `json:"findings"`
}

// VulnerablePaths returns the unsanitized findings (the paper's
// "vulnerable paths").
func (a *BinaryAnalysis) VulnerablePaths() []Finding {
	var out []Finding
	for _, f := range a.Findings {
		if !f.Sanitized {
			out = append(out, f)
		}
	}
	return out
}

// Vulnerabilities deduplicates the vulnerable paths by sink location
// (Finding.Key): several paths may reach the same weak sink.
func (a *BinaryAnalysis) Vulnerabilities() []Finding {
	seen := make(map[string]bool)
	var out []Finding
	for _, f := range a.Findings {
		if f.Sanitized {
			continue
		}
		if key := f.Key(); !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	return out
}

// BinaryScan is one rootfs executable's entry in an ImageReport.
type BinaryScan struct {
	// Path is the file's rootfs path.
	Path string `json:"path"`
	// SHA256 is the hex digest of the binary bytes (the content half of
	// the cache key).
	SHA256 string `json:"sha256"`
	Status Status `json:"status"`
	// Error describes a failed, timed-out, or skipped scan.
	Error string `json:"error,omitempty"`
	// Duration is this run's wall-clock spent on the binary (zero for
	// cache hits and skips).
	Duration time.Duration `json:"durationNanos"`
	// Analysis is the full result; nil unless Status is ok or cached.
	Analysis *BinaryAnalysis `json:"analysis,omitempty"`
}

// ImageReport aggregates one firmware image's scan — the per-image row
// of a fleet run (Table VI-style totals plus per-binary detail).
type ImageReport struct {
	// Image identity, from the container header.
	Vendor  string `json:"vendor"`
	Product string `json:"product"`
	Version string `json:"version"`
	Year    int    `json:"year"`
	Arch    string `json:"arch"`

	// Candidates is how many rootfs files carried the FWELF magic (after
	// the optional path filter).
	Candidates int `json:"candidates"`
	// Scanned/Cached/Failed/Stalled/Skipped partition the candidates:
	// analyzed fresh, served from cache, failed or timed out, abandoned
	// by the stall watchdog, never started.
	Scanned int `json:"scanned"`
	Cached  int `json:"cached"`
	Failed  int `json:"failed"`
	Stalled int `json:"stalled,omitempty"`
	Skipped int `json:"skipped"`

	// Vulnerabilities and VulnerablePaths are totals over all analyzed
	// binaries (deduplicated per binary; the same weak busybox installed
	// twice is two attack surfaces and counts twice).
	Vulnerabilities int `json:"vulnerabilities"`
	VulnerablePaths int `json:"vulnerablePaths"`
	// FindingsByClass counts deduplicated vulnerabilities per class.
	FindingsByClass map[string]int `json:"findingsByClass"`

	// Workers is the orchestrator pool size the scan ran with.
	Workers int `json:"workers"`
	// Wall is the whole-image wall-clock time.
	Wall time.Duration `json:"wallNanos"`

	// Binaries lists every candidate in rootfs path order.
	Binaries []BinaryScan `json:"binaries"`

	// Cache is a snapshot of the report cache's counters taken when the
	// scan finished (zero value when the scan ran uncached).
	Cache CacheStats `json:"cache"`

	// Runtime snapshots the Go runtime (heap, goroutines, GC) when the
	// scan finished.
	Runtime obs.RuntimeStats `json:"runtime"`
}

// aggregate fills the report's totals from its Binaries list. The input
// order is the deterministic rootfs path order, and every total is a sum
// over per-binary values, so the result is identical for any worker
// count.
func (r *ImageReport) aggregate() {
	r.FindingsByClass = make(map[string]int)
	for _, b := range r.Binaries {
		switch b.Status {
		case StatusOK:
			r.Scanned++
		case StatusCached:
			r.Cached++
		case StatusFailed, StatusTimeout:
			r.Failed++
		case StatusStalled:
			r.Stalled++
		case StatusSkipped:
			r.Skipped++
		}
		if b.Analysis == nil {
			continue
		}
		seen := make(map[string]bool)
		for _, f := range b.Analysis.Findings {
			if f.Sanitized {
				continue
			}
			r.VulnerablePaths++
			if key := f.Key(); !seen[key] {
				seen[key] = true
				r.Vulnerabilities++
				r.FindingsByClass[f.Class]++
			}
		}
	}
}

// FleetTotals are the fleet-wide totals MergeReports folds from several
// per-image reports: candidates, scan outcomes, and deduplicated
// vulnerability counts by class, for a fleet run over many images (the
// 6,529-image population workload). Per-binary detail stays in the
// per-image reports.
type FleetTotals struct {
	Images          int            `json:"images"`
	Candidates      int            `json:"candidates"`
	Scanned         int            `json:"scanned"`
	Cached          int            `json:"cached"`
	Failed          int            `json:"failed"`
	Stalled         int            `json:"stalled,omitempty"`
	Skipped         int            `json:"skipped"`
	Vulnerabilities int            `json:"vulnerabilities"`
	VulnerablePaths int            `json:"vulnerablePaths"`
	FindingsByClass map[string]int `json:"findingsByClass"`
	Wall            time.Duration  `json:"wallNanos"`
}

// MergeReports aggregates per-image reports into fleet totals.
func MergeReports(reports []*ImageReport) FleetTotals {
	t := FleetTotals{FindingsByClass: make(map[string]int)}
	for _, r := range reports {
		if r == nil {
			continue
		}
		t.Images++
		t.Candidates += r.Candidates
		t.Scanned += r.Scanned
		t.Cached += r.Cached
		t.Failed += r.Failed
		t.Stalled += r.Stalled
		t.Skipped += r.Skipped
		t.Vulnerabilities += r.Vulnerabilities
		t.VulnerablePaths += r.VulnerablePaths
		t.Wall += r.Wall
		for class, n := range r.FindingsByClass {
			t.FindingsByClass[class] += n
		}
	}
	return t
}
