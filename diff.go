package dtaint

import (
	"context"
	"time"

	"dtaint/internal/diff"
)

// This file is the public face of differential firmware scanning
// (internal/diff): the "CI for firmware" workload, where each nightly
// vendor re-release is scanned at a cost proportional to its delta and
// findings are tracked as new / fixed / persisting across versions.

// DiffBinaryStatus classifies how one rootfs binary relates across the
// two image versions.
type DiffBinaryStatus string

// Binary pairing outcomes.
const (
	// DiffUnchanged: same path, same bytes — never re-analyzed.
	DiffUnchanged DiffBinaryStatus = "unchanged"
	// DiffChanged: same path, different bytes.
	DiffChanged DiffBinaryStatus = "changed"
	// DiffAdded: present only in the new image.
	DiffAdded DiffBinaryStatus = "added"
	// DiffRemoved: present only in the old image.
	DiffRemoved DiffBinaryStatus = "removed"
	// DiffMoved: identical bytes at a different rootfs path.
	DiffMoved DiffBinaryStatus = "moved"
)

// DiffFindingStatus classifies one finding across versions.
type DiffFindingStatus string

// Cross-version finding outcomes.
const (
	// FindingNew exists in the new version only — the CI signal worth
	// breaking a build for.
	FindingNew DiffFindingStatus = "new"
	// FindingFixed existed in the old version only.
	FindingFixed DiffFindingStatus = "fixed"
	// FindingPersisting exists in both versions (tolerating function
	// renames and relocation).
	FindingPersisting DiffFindingStatus = "persisting"
)

// DiffSource records where one side's analysis came from: "cache"
// (replayed from the fleet report cache), "fresh" (analyzed in this
// run), or "none" (unavailable).
type DiffSource string

// DiffFinding is one deduplicated vulnerability with its cross-version
// classification. New and persisting findings carry the new version's
// location; fixed findings the old version's.
type DiffFinding struct {
	Status   DiffFindingStatus `json:"status"`
	Class    Class             `json:"class"`
	Sink     string            `json:"sink"`
	SinkFunc string            `json:"sinkFunc"`
	SinkAddr uint32            `json:"sinkAddr"`
	Source   string            `json:"source"`
	// OldFunc is set on persisting findings whose containing function
	// was renamed: the old version's name for SinkFunc.
	OldFunc string `json:"oldFunc,omitempty"`
	// Paths is the number of vulnerable paths sharing this finding.
	Paths int `json:"paths"`
	// Evidence is the constraint/interval chain behind the verdict.
	Evidence []string `json:"evidence,omitempty"`
}

// DiffBinary is one binary pair's entry in a DiffReport.
type DiffBinary struct {
	// Path is the rootfs path in the new image (old image for removed
	// binaries); OldPath is set when it differs (moved binaries).
	Path      string           `json:"path"`
	OldPath   string           `json:"oldPath,omitempty"`
	Status    DiffBinaryStatus `json:"status"`
	OldSHA256 string           `json:"oldSha256,omitempty"`
	NewSHA256 string           `json:"newSha256,omitempty"`
	OldSource DiffSource       `json:"oldSource,omitempty"`
	NewSource DiffSource       `json:"newSource,omitempty"`
	// Error describes a failed analysis; such pairs carry no findings.
	Error string `json:"error,omitempty"`
	// Duration is the fresh-analysis wall clock this run spent on the
	// pair (zero when everything replayed).
	Duration time.Duration `json:"durationNanos"`

	// Function pairing statistics (changed pairs only): of FuncsTotal
	// functions in the new version, FuncsExact paired on identical code
	// (FuncsRenamed of them under a different name) and FuncsSimilar by
	// layout/callgraph similarity.
	FuncsTotal   int `json:"funcsTotal,omitempty"`
	FuncsExact   int `json:"funcsExact,omitempty"`
	FuncsRenamed int `json:"funcsRenamed,omitempty"`
	FuncsSimilar int `json:"funcsSimilar,omitempty"`

	// SummaryHits/SummaryMisses attribute fresh analysis cost to the
	// function-summary store: hits are functions replayed from summaries
	// an earlier version already wrote.
	SummaryHits   int `json:"summaryHits,omitempty"`
	SummaryMisses int `json:"summaryMisses,omitempty"`

	// New/Fixed/Persisting count the pair's findings by status.
	New        int `json:"new"`
	Fixed      int `json:"fixed"`
	Persisting int `json:"persisting"`
	// Findings lists them: new first, then fixed, then persisting.
	Findings []DiffFinding `json:"findings,omitempty"`
}

// DiffImage identifies one side of the diff. Its fields mirror the
// internal image identity one for one, so reports convert it directly.
type DiffImage struct {
	Vendor     string `json:"vendor"`
	Product    string `json:"product"`
	Version    string `json:"version"`
	Year       int    `json:"year"`
	SHA256     string `json:"sha256"`
	Candidates int    `json:"candidates"`
}

// DiffReport is the result of diffing two firmware images. Its semantic
// content — pairing, hashes, finding classifications — is identical for
// any worker count and with the summary store on or off; only the cost
// attribution (durations, replay provenance, store counters) varies
// with configuration.
type DiffReport struct {
	Old DiffImage `json:"old"`
	New DiffImage `json:"new"`

	// Pairing totals over Binaries.
	Unchanged int `json:"unchanged"`
	Changed   int `json:"changed"`
	Added     int `json:"added"`
	Removed   int `json:"removed"`
	Moved     int `json:"moved"`

	// Replayed/Reanalyzed partition the distinct binary contents the
	// diff needed analyses for: served from the report cache vs analyzed
	// in this run. Failed counts pairs with an analysis error.
	Replayed   int `json:"replayed"`
	Reanalyzed int `json:"reanalyzed"`
	Failed     int `json:"failed"`
	// SummaryHitRate is the function-summary store hit rate over this
	// run's fresh analyses.
	SummaryHitRate float64 `json:"summaryHitRate"`

	// Finding totals across all pairs.
	NewFindings        int `json:"newFindings"`
	FixedFindings      int `json:"fixedFindings"`
	PersistingFindings int `json:"persistingFindings"`

	// Binaries lists every pair in rootfs path order.
	Binaries []DiffBinary `json:"binaries"`

	Workers int           `json:"workers"`
	Wall    time.Duration `json:"wallNanos"`
	// Cache snapshots the report cache's lifetime counters (zero when
	// the diff ran uncached).
	Cache CacheStats `json:"cache"`
}

// ScanFirmwareDiff diffs two firmware images: binaries are paired by
// rootfs path and content hash, unchanged ones replay from the fleet
// report cache (supply one with WithFleetCache — a prior
// ScanFirmwareFleet of the old image warms it), changed ones are
// re-analyzed with unchanged functions replaying from the summary store
// (WithFleetSummaryStore), and findings are matched across versions so
// each classifies as new, fixed, or persisting. The Analyzer's own
// options apply to every analysis, and the same FleetOption set as
// ScanFirmwareFleet configures workers, timeout, caches, filters, and
// the stall watchdog: a changed binary whose analysis stalls reports its
// pair with a watchdog error instead of blocking the diff.
func (a *Analyzer) ScanFirmwareDiff(ctx context.Context, oldImage, newImage []byte, opts ...FleetOption) (*DiffReport, error) {
	rep, err := diff.Diff(ctx, oldImage, newImage, a.fleetOptions(opts))
	if err != nil {
		return nil, err
	}
	return publicDiffReport(rep), nil
}

func publicDiffReport(r *diff.Report) *DiffReport {
	out := &DiffReport{
		Old:                DiffImage(r.Old),
		New:                DiffImage(r.New),
		Unchanged:          r.Unchanged,
		Changed:            r.Changed,
		Added:              r.Added,
		Removed:            r.Removed,
		Moved:              r.Moved,
		Replayed:           r.Replayed,
		Reanalyzed:         r.Reanalyzed,
		Failed:             r.Failed,
		SummaryHitRate:     r.SummaryHitRate,
		NewFindings:        r.NewFindings,
		FixedFindings:      r.FixedFindings,
		PersistingFindings: r.PersistingFindings,
		Workers:            r.Workers,
		Wall:               r.Wall,
		Cache:              CacheStats(r.Cache),
	}
	for _, b := range r.Binaries {
		pb := DiffBinary{
			Path:          b.Path,
			OldPath:       b.OldPath,
			Status:        DiffBinaryStatus(b.Status),
			OldSHA256:     b.OldSHA256,
			NewSHA256:     b.NewSHA256,
			OldSource:     DiffSource(b.OldSource),
			NewSource:     DiffSource(b.NewSource),
			Error:         b.Error,
			Duration:      b.Duration,
			FuncsTotal:    b.FuncsTotal,
			FuncsExact:    b.FuncsExact,
			FuncsRenamed:  b.FuncsRenamed,
			FuncsSimilar:  b.FuncsSimilar,
			SummaryHits:   b.SummaryHits,
			SummaryMisses: b.SummaryMisses,
			New:           b.New,
			Fixed:         b.Fixed,
			Persisting:    b.Persisting,
		}
		for _, fd := range b.Findings {
			pb.Findings = append(pb.Findings, DiffFinding{
				Status:   DiffFindingStatus(fd.Status),
				Class:    Class(fd.Finding.Class),
				Sink:     fd.Finding.Sink,
				SinkFunc: fd.Finding.SinkFunc,
				SinkAddr: fd.Finding.SinkAddr,
				Source:   fd.Finding.Source,
				OldFunc:  fd.OldFunc,
				Paths:    fd.Paths,
				Evidence: append([]string(nil), fd.Finding.Evidence...),
			})
		}
		out.Binaries = append(out.Binaries, pb)
	}
	return out
}
