package dtaint

import (
	"context"

	"dtaint/internal/diff"
)

// This file is the public face of differential firmware scanning
// (internal/diff): the "CI for firmware" workload, where each nightly
// vendor re-release is scanned at a cost proportional to its delta and
// findings are tracked as new / fixed / persisting across versions.

// DiffBinaryStatus classifies how one rootfs binary relates across the
// two image versions.
type DiffBinaryStatus = diff.PairStatus

// Binary pairing outcomes.
const (
	// DiffUnchanged: same path, same bytes — never re-analyzed.
	DiffUnchanged = diff.PairUnchanged
	// DiffChanged: same path, different bytes.
	DiffChanged = diff.PairChanged
	// DiffAdded: present only in the new image.
	DiffAdded = diff.PairAdded
	// DiffRemoved: present only in the old image.
	DiffRemoved = diff.PairRemoved
	// DiffMoved: identical bytes at a different rootfs path.
	DiffMoved = diff.PairMoved
)

// DiffFindingStatus classifies one finding across versions.
type DiffFindingStatus = diff.FindingStatus

// Cross-version finding outcomes.
const (
	// FindingNew exists in the new version only — the CI signal worth
	// breaking a build for.
	FindingNew = diff.FindingNew
	// FindingFixed existed in the old version only.
	FindingFixed = diff.FindingFixed
	// FindingPersisting exists in both versions (tolerating function
	// renames and relocation).
	FindingPersisting = diff.FindingPersisting
)

// DiffSource records where one side's analysis came from: "cache"
// (replayed from the fleet report cache), "fresh" (analyzed in this
// run), or "none" (unavailable).
type DiffSource = diff.Source

// DiffFinding is one deduplicated vulnerability with its cross-version
// classification. Its Finding is the new version's for new and
// persisting findings and the old version's for fixed ones.
type DiffFinding = diff.FindingDiff

// DiffBinary is one binary pair's entry in a DiffReport.
type DiffBinary = diff.BinaryDiff

// DiffImage identifies one side of the diff.
type DiffImage = diff.ImageIdentity

// DiffReport is the result of diffing two firmware images — also what
// dtaintd serves for a diff job. Its semantic content (pairing, hashes,
// finding classifications) is identical for any worker count and with
// the summary store on or off; only the cost attribution (durations,
// replay provenance, store counters) varies with configuration.
type DiffReport = diff.Report

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
	return diff.Diff(ctx, oldImage, newImage, a.fleetOptions(opts))
}
