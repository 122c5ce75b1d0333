// Package diff implements differential firmware scanning: given two
// versions of a firmware image, it pairs binaries by rootfs path and
// SHA-256, replays unchanged binaries from the fleet report cache,
// re-analyzes only changed ones — inside which unchanged functions
// replay from the function-summary store — and matches findings across
// versions via taint.VulnKey plus a function pairing, so every finding
// classifies as new, fixed, or persisting.
//
// This is the "CI for firmware" workload (ROADMAP item 5): a vendor
// re-release scan whose cost is proportional to the delta, not the image
// size. The determinism contract matches the rest of the pipeline: for a
// fixed image pair and analysis options, the report's semantic content
// (Report.Signature) is identical for any worker count and with the
// summary store on or off.
package diff

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/taint"
)

// Options configures a differential scan. It is fleet.Options, so a
// diff shares caches — and cache keys — with ordinary fleet scans of the
// same images, and every knob means the same thing in both: Cache
// replays unchanged binaries' reports (a prior nightly scan warms the
// diff), SummaryStore replays unchanged functions inside changed
// binaries, PathFilter applies to both images, Progress counts analysis
// units, and StallTimeout/DebugDir arm the stall watchdog.
type Options = fleet.Options

// binPair is one rootfs binary tracked across the two versions.
type binPair struct {
	path    string // new-image path (old-image path for removed)
	oldPath string // set when it differs from path (moved)
	status  PairStatus
	oldFile *firmware.File
	newFile *firmware.File
	oldSHA  string
	newSHA  string
}

// unit is one distinct binary content that needs an analysis. Pairs
// sharing bytes share a unit.
type unit struct {
	sha     string
	file    firmware.File
	oldSide bool // needed by the old image (analyzed in the first wave)
}

// Diff scans the delta between two firmware images. Every distinct
// binary runs through fleet's scan unit (fleet.ScanOne): report cache,
// panic isolation, the per-binary deadline and the stall watchdog. It
// returns an error only when an image fails to unpack or the options are
// invalid; per-binary analysis failures, timeouts and stalls are
// embedded in the report as pair errors.
func Diff(ctx context.Context, oldData, newData []byte, opts Options) (*Report, error) {
	if err := opts.Prepare(); err != nil {
		return nil, err
	}
	stopWatchdog := opts.ArmWatchdog(nil)
	defer stopWatchdog()
	start := time.Now()

	diffSpan := opts.Analysis.Tracer.Start(opts.Analysis.ParentSpan, "diff-images")
	opts.Analysis.ParentSpan = diffSpan
	defer diffSpan.End()

	st := opts.Analysis.StartStage("unpack-images",
		obs.KV("oldBytes", len(oldData)), obs.KV("newBytes", len(newData)))
	oldImg, oldBins, err := unpackCandidates(oldData, opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("diff: old image: %w", err)
	}
	newImg, newBins, err := unpackCandidates(newData, opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("diff: new image: %w", err)
	}
	st.End("oldCandidates", len(oldBins), "newCandidates", len(newBins))
	diffSpan.SetAttr("product", newImg.Header.Product)

	st = opts.Analysis.StartStage("pair-binaries")
	pairs := pairBinaries(oldBins, newBins)
	units, order := planUnits(pairs)
	st.End("pairs", len(pairs), "units", len(units))

	st = opts.Analysis.StartStage("analyze-units", obs.KV("units", len(units)))
	results := executeUnits(ctx, units, order, opts)
	st.End()

	rep := &Report{
		Old: identityOf(oldImg.Header.Vendor, oldImg.Header.Product,
			oldImg.Header.Version, oldImg.Header.Year, oldData, len(oldBins)),
		New: identityOf(newImg.Header.Vendor, newImg.Header.Product,
			newImg.Header.Version, newImg.Header.Year, newData, len(newBins)),
		Workers: opts.Workers,
	}
	for _, res := range results {
		switch sourceOf(res) {
		case SourceCache:
			rep.Replayed++
		case SourceFresh:
			rep.Reanalyzed++
		}
	}
	for _, p := range pairs {
		rep.Binaries = append(rep.Binaries, assemblePair(p, results))
	}
	rep.aggregate()
	rep.Wall = time.Since(start)
	if opts.Cache != nil {
		rep.Cache = opts.Cache.Stats()
	}
	recordDiffMetrics(opts.Analysis.Metrics, rep)
	if opts.Analysis.Log != nil {
		opts.Analysis.Log.Info("diff-images done",
			"unchanged", rep.Unchanged, "changed", rep.Changed,
			"added", rep.Added, "removed", rep.Removed,
			"replayed", rep.Replayed, "reanalyzed", rep.Reanalyzed,
			"new", rep.NewFindings, "fixed", rep.FixedFindings,
			"persisting", rep.PersistingFindings,
			"seconds", rep.Wall.Seconds())
	}
	return rep, nil
}

// unpackCandidates unpacks one image and collects its FWELF candidates
// in rootfs path order.
func unpackCandidates(data []byte, opts Options) (*firmware.Image, []firmware.File, error) {
	img, fs, err := firmware.Unpack(data)
	if err != nil {
		return nil, nil, err
	}
	return img, opts.Candidates(fs.Files), nil
}

// pairBinaries matches the two candidate lists: by path first, then
// leftover added/removed entries with identical bytes become moved
// pairs. The result is sorted by path.
func pairBinaries(oldBins, newBins []firmware.File) []*binPair {
	oldByPath := make(map[string]*firmware.File, len(oldBins))
	for i := range oldBins {
		oldByPath[oldBins[i].Path] = &oldBins[i]
	}
	newByPath := make(map[string]*firmware.File, len(newBins))
	for i := range newBins {
		newByPath[newBins[i].Path] = &newBins[i]
	}
	paths := make([]string, 0, len(oldByPath)+len(newByPath))
	for _, f := range oldBins {
		paths = append(paths, f.Path)
	}
	for _, f := range newBins {
		if _, ok := oldByPath[f.Path]; !ok {
			paths = append(paths, f.Path)
		}
	}
	sort.Strings(paths)

	shaOf := func(f *firmware.File) string {
		sum := sha256.Sum256(f.Data)
		return hex.EncodeToString(sum[:])
	}
	var pairs []*binPair
	for _, path := range paths {
		o, n := oldByPath[path], newByPath[path]
		p := &binPair{path: path, oldFile: o, newFile: n}
		switch {
		case o != nil && n != nil:
			p.oldSHA, p.newSHA = shaOf(o), shaOf(n)
			if p.oldSHA == p.newSHA {
				p.status = PairUnchanged
			} else {
				p.status = PairChanged
			}
		case o != nil:
			p.oldSHA = shaOf(o)
			p.status = PairRemoved
		default:
			p.newSHA = shaOf(n)
			p.status = PairAdded
		}
		pairs = append(pairs, p)
	}

	// Moved detection: an added binary with the exact bytes of a removed
	// one is the same binary at a new path. Matching is by path order on
	// both sides.
	removedBySHA := make(map[string][]*binPair)
	for _, p := range pairs {
		if p.status == PairRemoved {
			removedBySHA[p.oldSHA] = append(removedBySHA[p.oldSHA], p)
		}
	}
	var out []*binPair
	claimed := make(map[*binPair]bool)
	for _, p := range pairs {
		if p.status == PairAdded {
			if cands := removedBySHA[p.newSHA]; len(cands) > 0 {
				rm := cands[0]
				removedBySHA[p.newSHA] = cands[1:]
				claimed[rm] = true
				p.status = PairMoved
				p.oldPath = rm.path
				p.oldFile = rm.oldFile
				p.oldSHA = rm.oldSHA
			}
		}
	}
	for _, p := range pairs {
		if !claimed[p] {
			out = append(out, p)
		}
	}
	return out
}

// planUnits deduplicates the pairs' analysis needs by content hash.
// order lists the unit keys in first-need (path) order; units needed by
// the old image run in the first wave so a changed binary's new version
// finds the old version's function summaries already in the store.
func planUnits(pairs []*binPair) (map[string]*unit, []string) {
	units := make(map[string]*unit)
	var order []string
	add := func(sha string, f *firmware.File, oldSide bool) {
		if sha == "" || f == nil {
			return
		}
		if u, ok := units[sha]; ok {
			u.oldSide = u.oldSide || oldSide
			return
		}
		units[sha] = &unit{sha: sha, file: *f, oldSide: oldSide}
		order = append(order, sha)
	}
	for _, p := range pairs {
		switch p.status {
		case PairUnchanged, PairMoved:
			add(p.oldSHA, p.oldFile, true)
		case PairChanged:
			add(p.oldSHA, p.oldFile, true)
			add(p.newSHA, p.newFile, false)
		case PairRemoved:
			add(p.oldSHA, p.oldFile, true)
		case PairAdded:
			add(p.newSHA, p.newFile, false)
		}
	}
	return units, order
}

// executeUnits runs the analysis plan: the old-image wave, then the
// new-only wave, each through fleet's scan unit over a bounded worker
// pool.
func executeUnits(ctx context.Context, units map[string]*unit, order []string, opts Options) map[string]fleet.BinaryScan {
	var waves [2][]*unit
	for _, sha := range order {
		u := units[sha]
		if u.oldSide {
			waves[0] = append(waves[0], u)
		} else {
			waves[1] = append(waves[1], u)
		}
	}
	results := make(map[string]fleet.BinaryScan, len(units))
	var mu sync.Mutex
	done, total := 0, len(units)
	for _, wave := range waves {
		files := make([]firmware.File, len(wave))
		for i, u := range wave {
			files[i] = u.file
		}
		fleet.ScanEach(ctx, files, opts, func(i int, bs fleet.BinaryScan) {
			mu.Lock()
			results[wave[i].sha] = bs
			done++
			n := done
			if opts.Progress != nil {
				opts.Progress(n, total)
			}
			mu.Unlock()
			// n is mutex-ordered (unique per unit), keeping the
			// progress event multiset worker-count independent.
			opts.Analysis.Events.Progress("units", n, total)
		})
	}
	return results
}

// sourceOf maps a scan unit's outcome onto the diff's provenance: a
// cache hit replayed, a fresh success analyzed, anything else (failure,
// timeout, stall, cancellation) left the side without an analysis.
func sourceOf(bs fleet.BinaryScan) Source {
	switch bs.Status {
	case fleet.StatusCached:
		return SourceCache
	case fleet.StatusOK:
		return SourceFresh
	}
	return SourceNone
}

// assemblePair builds one pair's report entry, classifying its findings
// across versions.
func assemblePair(p *binPair, results map[string]fleet.BinaryScan) BinaryDiff {
	bd := BinaryDiff{
		Path: p.path, OldPath: p.oldPath, Status: p.status,
		OldSHA256: p.oldSHA, NewSHA256: p.newSHA,
	}
	oldRes, newRes := results[p.oldSHA], results[p.newSHA]
	attribute := func(res fleet.BinaryScan) {
		bd.Duration += res.Duration
		if res.Status == fleet.StatusOK {
			bd.SummaryHits += res.Analysis.SummaryHits
			bd.SummaryMisses += res.Analysis.SummaryMisses
		}
	}

	switch p.status {
	case PairUnchanged, PairMoved:
		// One shared analysis serves both sides.
		bd.OldSource, bd.NewSource = sourceOf(oldRes), sourceOf(oldRes)
		attribute(oldRes)
		if oldRes.Error != "" {
			bd.Error = oldRes.Error
			return bd
		}
		bd.Findings = wholesale(oldRes.Analysis, FindingPersisting)
	case PairRemoved:
		bd.OldSource = sourceOf(oldRes)
		attribute(oldRes)
		if oldRes.Error != "" {
			bd.Error = oldRes.Error
			return bd
		}
		bd.Findings = wholesale(oldRes.Analysis, FindingFixed)
	case PairAdded:
		bd.NewSource = sourceOf(newRes)
		attribute(newRes)
		if newRes.Error != "" {
			bd.Error = newRes.Error
			return bd
		}
		bd.Findings = wholesale(newRes.Analysis, FindingNew)
	case PairChanged:
		bd.OldSource, bd.NewSource = sourceOf(oldRes), sourceOf(newRes)
		attribute(oldRes)
		attribute(newRes)
		if oldRes.Error != "" || newRes.Error != "" {
			bd.Error = joinErrs(oldRes.Error, newRes.Error)
			return bd
		}
		classifyChanged(&bd, p, oldRes.Analysis, newRes.Analysis)
	}
	sortFindingDiffs(bd.Findings)
	for _, fd := range bd.Findings {
		switch fd.Status {
		case FindingNew:
			bd.New++
		case FindingFixed:
			bd.Fixed++
		case FindingPersisting:
			bd.Persisting++
		}
	}
	return bd
}

// classifyChanged matches a changed pair's findings across versions: the
// function pairing maps old function names onto new ones, and findings
// compare on a relocation-tolerant key (mapped function, sink, sink
// offset within the function, class).
func classifyChanged(bd *BinaryDiff, p *binPair, oldAn, newAn *fleet.BinaryAnalysis) {
	oldProg := buildProgram(p.oldFile)
	newProg := buildProgram(p.newFile)
	pairing := newPairing()
	if oldProg != nil && newProg != nil {
		pairing = PairFunctions(oldProg, newProg)
		bd.FuncsTotal = len(newProg.Funcs)
		bd.FuncsExact = pairing.Exact
		bd.FuncsRenamed = pairing.Renamed
		bd.FuncsSimilar = pairing.Similar
	}

	oldGroups := vulnGroups(oldAn)
	newGroups := vulnGroups(newAn)
	oldByCross := make(map[string]vulnGroup, len(oldGroups))
	for _, g := range oldGroups {
		oldByCross[crossKey(g.rep, oldProg, pairing.OldToNew)] = g
	}
	for _, g := range newGroups {
		ck := crossKey(g.rep, newProg, nil)
		if og, ok := oldByCross[ck]; ok {
			fd := FindingDiff{Status: FindingPersisting, Finding: g.rep, Paths: g.paths}
			if og.rep.SinkFunc != g.rep.SinkFunc {
				fd.OldFunc = og.rep.SinkFunc
			}
			bd.Findings = append(bd.Findings, fd)
			delete(oldByCross, ck)
			continue
		}
		bd.Findings = append(bd.Findings, FindingDiff{Status: FindingNew, Finding: g.rep, Paths: g.paths})
	}
	// Old findings with no cross-version match are fixed; iterate the
	// deterministic group order, not the map.
	for _, g := range oldGroups {
		if _, alive := oldByCross[crossKey(g.rep, oldProg, pairing.OldToNew)]; alive {
			bd.Findings = append(bd.Findings, FindingDiff{Status: FindingFixed, Finding: g.rep, Paths: g.paths})
		}
	}
}

// buildProgram recovers a binary's CFG for pairing; nil when the binary
// does not parse (classification then falls back to name identity).
func buildProgram(f *firmware.File) *cfg.Program {
	if f == nil {
		return nil
	}
	bin, err := image.Parse(f.Data)
	if err != nil {
		return nil
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		return nil
	}
	return prog
}

// vulnGroup is one deduplicated vulnerability: its representative
// finding and the number of vulnerable paths sharing the key.
type vulnGroup struct {
	rep   fleet.Finding
	paths int
}

// vulnGroups deduplicates an analysis's unsanitized findings by
// taint.VulnKey, in first-occurrence order.
func vulnGroups(an *fleet.BinaryAnalysis) []vulnGroup {
	if an == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []vulnGroup
	for _, f := range an.Findings {
		if f.Sanitized {
			continue
		}
		k := f.Key()
		if i, ok := idx[k]; ok {
			out[i].paths++
			continue
		}
		idx[k] = len(out)
		out = append(out, vulnGroup{rep: f, paths: 1})
	}
	return out
}

// crossKey is the cross-version identity of a finding: the containing
// function's name (mapped through the pairing for the old side), the
// sink, the sink's offset within the function (tolerating whole-function
// relocation), and the class. Falls back to the absolute address when
// the function is unknown to the CFG.
func crossKey(f fleet.Finding, prog *cfg.Program, oldToNew map[string]string) string {
	name := f.SinkFunc
	if mapped, ok := oldToNew[name]; ok {
		name = mapped
	}
	addr := f.SinkAddr
	if prog != nil {
		if fn := prog.ByName[f.SinkFunc]; fn != nil && f.SinkAddr >= fn.Addr {
			addr = f.SinkAddr - fn.Addr
		}
	}
	return taint.VulnKey(name, f.Sink, addr, f.Class)
}

// wholesale classifies every vulnerability of one analysis with a single
// status (unchanged/added/removed binaries).
func wholesale(an *fleet.BinaryAnalysis, status FindingStatus) []FindingDiff {
	var out []FindingDiff
	for _, g := range vulnGroups(an) {
		out = append(out, FindingDiff{Status: status, Finding: g.rep, Paths: g.paths})
	}
	return out
}

// joinErrs joins the non-empty error messages of a pair's two sides.
func joinErrs(errs ...string) string {
	var parts []string
	for _, err := range errs {
		if err != "" {
			parts = append(parts, err)
		}
	}
	return strings.Join(parts, "; ")
}

// recordDiffMetrics publishes one finished diff's counters. Every
// registry call is nil-safe on reg.
func recordDiffMetrics(reg *obs.Registry, rep *Report) {
	reg.Counter("dtaint_diff_images_total",
		"Firmware image pairs diffed.", nil).Inc()
	reg.Counter("dtaint_diff_binaries_replayed_total",
		"Distinct binaries a diff served from the report cache.", nil).Add(uint64(rep.Replayed))
	reg.Counter("dtaint_diff_binaries_reanalyzed_total",
		"Distinct binaries a diff analyzed fresh.", nil).Add(uint64(rep.Reanalyzed))
	for _, fc := range []struct {
		status string
		n      int
	}{
		{"new", rep.NewFindings}, {"fixed", rep.FixedFindings},
		{"persisting", rep.PersistingFindings},
	} {
		if fc.n > 0 {
			reg.Counter("dtaint_diff_findings_total",
				"Findings classified by differential scans, by cross-version status.",
				obs.Labels{"status": fc.status}).Add(uint64(fc.n))
		}
	}
}
