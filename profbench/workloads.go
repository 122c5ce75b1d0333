package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/diff"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// analysisOptions are the options dtaint.New builds: the paper's
// loop-once heuristic and the default vocabulary.
func analysisOptions() dataflow.Options {
	return dataflow.Options{Symexec: symexec.Options{LoopOnce: true}}
}

// sizing scales the generated inputs. fullSize is the benchmark; tinySize
// keeps the tests under a few seconds.
type sizing struct {
	studyScale  float64
	screenN     int
	replayScale float64
	replayParts int
	diffScale   float64
}

var (
	fullSize = sizing{studyScale: 0.5, screenN: 2000, replayScale: 4, replayParts: 8, diffScale: 10}
	tinySize = sizing{studyScale: 0.05, screenN: 40, replayScale: 0.1, replayParts: 2, diffScale: 0.5}
)

// passObs carries a traced pass's handles into the program through the
// public dataflow.Options fields. The zero value is tracing off.
type passObs struct {
	tracer  *obs.Tracer
	metrics *obs.Registry
	parent  *obs.Span
}

func (o passObs) start(name string) *obs.Span { return o.tracer.Start(o.parent, name) }

// analysis threads the handles into opts, nesting the program's stage
// spans under parent.
func (o passObs) analysis(opts dataflow.Options, parent *obs.Span) dataflow.Options {
	opts.Tracer, opts.Metrics, opts.ParentSpan = o.tracer, o.metrics, parent
	return opts
}

// passResult is one pass's outcome: a time-to-verdict sample per unit,
// the units checked against ground truth and how many disagreed, and the
// workload's own per-layer counters.
type passResult struct {
	units     []time.Duration
	attempted int
	failed    int
	facts     map[string]float64
}

// instance is a workload with its inputs generated.
type instance interface {
	// prepare readies the next pass outside the timed region: fresh
	// caches and stores, and diff's prior scan.
	prepare() error
	// run is the timed pass. Program errors and disagreements with
	// ground truth count as failed units; they never abort the run.
	run(o passObs) passResult
	// probeInputs lists the workload's distinct binaries for the probe.
	probeInputs() []probeInput
}

// workload is one benchmark input set. why is the one-line reason it is
// in the benchmark (BENCHMARK.json carries the same line).
type workload struct {
	name, why, inputs, unit string
	// warmups is how many untimed passes set-up runs; replay's first one
	// is the cold pass that fills the summary store.
	warmups int
	setup   func(seed uint64, sz sizing, workers int) (instance, error)
}

var workloads = []workload{
	{
		name:    "study",
		why:     "the six Table II images and openssl, one binary at a time; symexec and the bottom-up pass do nearly all the work",
		inputs:  "corpus.BuildFirmware of the six Table II images at scale 0.5 with the Table III module filters, plus the Table VII openssl binary; fixed inputs, the seed is unused",
		unit:    "one binary: unpack, parse, cfg, dataflow",
		warmups: 1,
		setup:   setupStudy,
	},
	{
		name:    "screen",
		why:     "2000 tiny seeded binaries: per-binary fixed costs and indirect-call resolution dominate; every verdict is checked",
		inputs:  "corpus.ScreeningCorpus(2000, seed), each binary in its own firmware image",
		unit:    "one binary: unpack, parse, cfg, dataflow",
		warmups: 1,
		setup:   setupScreen,
	},
	{
		name:    "replay",
		why:     "800 images of 16 variants rescanned against a warm summary store: unpack, dedup and store reads, no symbolic execution",
		inputs:  "8 corpus.BuildOverlapCorpus corpora of 100 images and 2 variants, seeded 8*seed+k: the 800 images and 16 variants of OverlapAt(4)",
		unit:    "one image (ImageReport.Wall)",
		warmups: 2,
		setup:   setupReplay,
	},
	{
		name:    "diff",
		why:     "a 120-binary re-release diffed after a prior scan: re-analyses read stable functions from the store and write the rest; the only function pairing",
		inputs:  "corpus.VersionPairAt(10) with Seed = seed: 120 binaries, 30 mutated, 1 added, 1 removed; a summary store that holds the prior scan",
		unit:    "one re-analyzed binary pair (BinaryDiff.Duration)",
		warmups: 1,
		setup:   setupDiff,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// Single-binary scans: study and screen.

// binUnit is one binary packed in its own firmware image, with the
// expectation its verdict is checked against.
type binUnit struct {
	fw     []byte
	path   string
	raw    []byte
	filter func(string) bool

	// Study: every planted vulnerability must be found and, when
	// exactVulns, nothing else.
	planted    []corpus.Planted
	exactVulns bool
	// Screen: whether the handler carries a vulnerability of class.
	hasVuln bool
	class   taint.Class
}

// scanBinary is the analyst's single-binary pipeline, each layer call in
// its own harness span.
func scanBinary(u *binUnit, opts dataflow.Options, o passObs) (*dataflow.Result, error) {
	sp := o.start("firmware.unpack")
	_, fs, err := firmware.Unpack(u.fw)
	sp.End()
	if err != nil {
		return nil, err
	}
	f, err := fs.Lookup(u.path)
	if err != nil {
		return nil, err
	}
	sp = o.start("image.parse")
	bin, err := image.Parse(f.Data)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = o.start("cfg.build")
	prog, err := cfg.Build(bin)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = o.start("dataflow.analyze")
	defer sp.End()
	opts.Filter = u.filter
	return dataflow.Analyze(prog, o.analysis(opts, sp))
}

// plantedFound is the study's ground truth: a planted vulnerability is
// found when an unsanitized finding matches its sink function, sink,
// source and class (the Table IV/V rule).
func plantedFound(res *dataflow.Result, u *binUnit) bool {
	vulns := res.Vulnerabilities()
	if u.exactVulns && len(vulns) != len(u.planted) {
		return false
	}
	for _, p := range u.planted {
		found := false
		for _, v := range vulns {
			if v.SinkFunc == p.SinkFunc && v.Sink == p.Sink && v.Source == p.Source && v.Class == p.Class {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// screenVerdict is the screening rule: a case is flagged when an
// unsanitized vulnerability of its planted class is reported in the
// handler.
func screenVerdict(res *dataflow.Result, class taint.Class) bool {
	for _, v := range res.Vulnerabilities() {
		if v.SinkFunc == "handler" && v.Class == class {
			return true
		}
	}
	return false
}

// packFirmware wraps one binary in a firmware image with a one-file root
// filesystem, so every unit goes through unpack and parse.
func packFirmware(bin *image.Binary, path string) (fw, raw []byte, err error) {
	if raw, err = bin.Marshal(); err != nil {
		return nil, nil, err
	}
	fs := &firmware.FS{}
	if err := fs.Add(firmware.File{Path: path, Mode: 0o755, Data: raw}); err != nil {
		return nil, nil, err
	}
	payload, err := firmware.MarshalFS(fs)
	if err != nil {
		return nil, nil, err
	}
	fw, err = firmware.Pack(&firmware.Image{
		Header: firmware.Header{Vendor: "Bench", Product: bin.Name, Version: "1", Year: 2026, Arch: bin.Arch},
		Parts:  []firmware.Part{{Type: firmware.PartRootFS, Data: payload}},
	})
	return fw, raw, err
}

type studyInstance struct {
	units []*binUnit
	opts  dataflow.Options
}

func setupStudy(_ uint64, sz sizing, workers int) (instance, error) {
	s := &studyInstance{opts: analysisOptions()}
	s.opts.Parallelism = workers
	for _, spec := range corpus.StudyImages() {
		fw, planted, err := corpus.BuildFirmware(spec, sz.studyScale)
		if err != nil {
			return nil, err
		}
		path := corpus.BinaryPathFor(spec)
		_, fs, err := firmware.Unpack(fw)
		if err != nil {
			return nil, err
		}
		f, err := fs.Lookup(path)
		if err != nil {
			return nil, err
		}
		s.units = append(s.units, &binUnit{
			fw: fw, path: path, raw: f.Data, filter: corpus.ModuleFilter(spec),
			planted: planted, exactVulns: true,
		})
	}
	bin, err := corpus.OpenSSL(sz.studyScale)
	if err != nil {
		return nil, err
	}
	fw, raw, err := packFirmware(bin, "/usr/lib/openssl")
	if err != nil {
		return nil, err
	}
	s.units = append(s.units, &binUnit{
		fw: fw, path: "/usr/lib/openssl", raw: raw,
		planted: []corpus.Planted{corpus.HeartbleedGroundTruth()},
	})
	return s, nil
}

func (s *studyInstance) prepare() error { return nil }

func (s *studyInstance) run(o passObs) passResult {
	res := passResult{attempted: len(s.units)}
	for _, u := range s.units {
		t0 := time.Now()
		r, err := scanBinary(u, s.opts, o)
		res.units = append(res.units, time.Since(t0))
		if err != nil || !plantedFound(r, u) {
			res.failed++
		}
	}
	return res
}

func (s *studyInstance) probeInputs() []probeInput {
	in := make([]probeInput, len(s.units))
	for i, u := range s.units {
		in[i] = probeInput{raw: u.raw, filter: u.filter}
	}
	return in
}

type screenInstance struct {
	units   []*binUnit
	workers int
}

func setupScreen(seed uint64, sz sizing, workers int) (instance, error) {
	cases, err := corpus.ScreeningCorpus(sz.screenN, seed)
	if err != nil {
		return nil, err
	}
	s := &screenInstance{workers: workers}
	for _, c := range cases {
		path := "/usr/sbin/" + c.Name
		fw, raw, err := packFirmware(c.Binary, path)
		if err != nil {
			return nil, err
		}
		s.units = append(s.units, &binUnit{fw: fw, path: path, raw: raw, hasVuln: c.HasVuln, class: c.Class})
	}
	return s, nil
}

func (s *screenInstance) prepare() error { return nil }

// run takes the binaries through the pipeline on workers goroutines, each
// binary with one analysis worker, as fleet does.
func (s *screenInstance) run(o passObs) passResult {
	res := passResult{units: make([]time.Duration, len(s.units)), attempted: len(s.units)}
	opts := analysisOptions()
	opts.Parallelism = 1
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.units) {
					return
				}
				u := s.units[i]
				t0 := time.Now()
				r, err := scanBinary(u, opts, o)
				res.units[i] = time.Since(t0)
				if err != nil || screenVerdict(r, u.class) != u.hasVuln {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.failed = int(failed.Load())
	return res
}

func (s *screenInstance) probeInputs() []probeInput {
	in := make([]probeInput, len(s.units))
	for i, u := range s.units {
		in[i] = probeInput{raw: u.raw}
	}
	return in
}

// ---------------------------------------------------------------------------
// Corpus replay.

type replayInstance struct {
	images   [][]byte
	binaries [][]byte
	store    *sumstore.Store
	cache    *fleet.Cache
	// refs maps a binary's SHA-256 to the signature of its store-off
	// reference analysis.
	refs    map[string]string
	workers int
}

// setupReplay builds sz.replayParts overlap corpora that together have
// the image and variant counts of OverlapAt(sz.replayScale), corpus k
// seeded replayParts·seed+k. Every variant of a corpus copies one shared
// module, three quarters of its code, drawn from the seed; with a single
// corpus one draw would set the cost of the whole pass, and several
// average it out.
func setupReplay(seed uint64, sz sizing, workers int) (instance, error) {
	store, err := sumstore.NewStore(0, "")
	if err != nil {
		return nil, err
	}
	r := &replayInstance{store: store, refs: make(map[string]string), workers: workers}
	spec := corpus.OverlapAt(sz.replayScale)
	spec.Images /= sz.replayParts
	spec.Variants /= sz.replayParts
	for k := 0; k < sz.replayParts; k++ {
		spec.Seed = seed*uint64(sz.replayParts) + uint64(k)
		c, err := corpus.BuildOverlapCorpus(spec)
		if err != nil {
			return nil, err
		}
		r.images = append(r.images, c.Images...)
		r.binaries = append(r.binaries, c.Binaries...)
		// The store-off reference: one image per variant, no cache or store.
		for v := 0; v < c.Spec.Variants; v++ {
			rep, err := fleet.ScanImage(context.Background(), c.Images[v],
				fleet.Options{Workers: workers, Analysis: analysisOptions()})
			if err != nil {
				return nil, fmt.Errorf("replay reference: %w", err)
			}
			for _, bs := range rep.Binaries {
				if bs.Analysis == nil {
					return nil, fmt.Errorf("replay reference: %s: %s", bs.Path, bs.Error)
				}
				if !hasFinding(bs.Analysis.Findings, c.Planted) {
					return nil, fmt.Errorf("replay reference: %s misses the planted %s", bs.Path, c.Planted.ID)
				}
				r.refs[bs.SHA256] = binarySignature(bs)
			}
		}
	}
	return r, nil
}

func hasFinding(fs []fleet.Finding, p corpus.Planted) bool {
	for _, f := range fs {
		if !f.Sanitized && f.SinkFunc == p.SinkFunc && f.Sink == p.Sink &&
			f.Source == p.Source && f.Class == p.Class.String() {
			return true
		}
	}
	return false
}

// binarySignature canonicalizes one binary analysis for comparison with
// the reference: every analysis output except timings and store counters.
func binarySignature(bs fleet.BinaryScan) string {
	a := bs.Analysis
	findings, err := json.Marshal(a.Findings)
	if err != nil {
		findings = []byte("marshal-error:" + err.Error())
	}
	return fmt.Sprintf("%s|fn=%d blk=%d ce=%d an=%d sink=%d ind=%d dp=%d tr=%d|%s",
		bs.SHA256, a.Functions, a.Blocks, a.CallEdges, a.FunctionsAnalyzed,
		a.SinkCount, a.IndirectResolved, a.DefPairs, a.Truncated, findings)
}

// prepare gives the pass a fresh report cache; the summary store stays
// warm across passes.
func (r *replayInstance) prepare() (err error) {
	r.cache, err = fleet.NewCache(0, "")
	return err
}

func (r *replayInstance) run(o passObs) passResult {
	sp := o.start("fleet.scan-corpus")
	s0 := r.store.Stats()
	rep, err := fleet.ScanCorpus(context.Background(), r.images, fleet.Options{
		Workers: r.workers, Cache: r.cache, SummaryStore: r.store,
		Analysis: o.analysis(analysisOptions(), sp),
	})
	sp.End()
	if err != nil {
		return passResult{attempted: len(r.images), failed: len(r.images)}
	}
	res := passResult{facts: storeFacts(s0, r.store.Stats())}
	for _, ir := range rep.Images {
		res.units = append(res.units, ir.Wall)
		for _, bs := range ir.Binaries {
			res.attempted++
			if bs.Analysis == nil || binarySignature(bs) != r.refs[bs.SHA256] {
				res.failed++
			}
		}
	}
	cs := r.cache.Stats()
	res.facts["fleet.cache_hits"] = float64(cs.Hits)
	res.facts["fleet.cache_misses"] = float64(cs.Misses)
	if n := rep.UniqueBinaries + rep.DuplicateBinaries; n > 0 {
		res.facts["fleet.dedup_ratio"] = float64(rep.DuplicateBinaries) / float64(n)
	}
	return res
}

func (r *replayInstance) probeInputs() []probeInput {
	in := make([]probeInput, len(r.binaries))
	for i, raw := range r.binaries {
		in[i] = probeInput{raw: raw}
	}
	return in
}

// storeFacts are the summary store's counters over one pass.
func storeFacts(s0, s1 sumstore.Stats) map[string]float64 {
	hits := float64(s1.Hits - s0.Hits)
	misses := float64(s1.Misses - s0.Misses)
	f := map[string]float64{
		"sumstore.hits":    hits,
		"sumstore.misses":  misses,
		"sumstore.entries": float64(s1.Entries),
	}
	if hits+misses > 0 {
		f["sumstore.hit_ratio"] = hits / (hits + misses)
	}
	return f
}

// ---------------------------------------------------------------------------
// Differential scan.

// pairTruth is one binary pair's expected diff outcome, derived from the
// version-pair generator: every binary keeps one stable planted
// vulnerability; a mutated binary adds a renamed one, swaps its old tail
// vulnerability (fixed) for a new one (new), and is the only kind of pair
// re-analyzed besides the added binary.
type pairTruth struct {
	status                diff.PairStatus
	oldSource, newSource  diff.Source
	newF, fixed, persists int
}

type diffInstance struct {
	vp      *corpus.VersionPair
	truth   map[string]pairTruth
	workers int
	probes  []probeInput

	cache *fleet.Cache
	store *sumstore.Store
	// priorWall and priorFailed describe the untimed prior scan of the
	// pass being prepared.
	priorWall   time.Duration
	priorFailed int
	priorUnits  int
}

func setupDiff(seed uint64, sz sizing, workers int) (instance, error) {
	spec := corpus.VersionPairAt(sz.diffScale)
	spec.Seed = seed
	vp, err := corpus.BuildVersionPair(spec)
	if err != nil {
		return nil, err
	}
	truth := map[string]pairTruth{
		vp.AddedPath:   {status: diff.PairAdded, newSource: diff.SourceFresh, newF: 1},
		vp.RemovedPath: {status: diff.PairRemoved, oldSource: diff.SourceCache, fixed: 1},
	}
	for _, p := range vp.UnchangedPaths {
		truth[p] = pairTruth{status: diff.PairUnchanged, oldSource: diff.SourceCache, newSource: diff.SourceCache, persists: 1}
	}
	for _, p := range vp.MutatedPaths {
		truth[p] = pairTruth{status: diff.PairChanged, oldSource: diff.SourceCache, newSource: diff.SourceFresh, newF: 1, fixed: 1, persists: 2}
	}
	probes, err := distinctBinaries(vp.Old, vp.New)
	if err != nil {
		return nil, err
	}
	return &diffInstance{vp: vp, truth: truth, workers: workers, probes: probes}, nil
}

// diffStoreEntries sizes diff's summary store to hold the whole prior scan
// (at seed 1 the store holds 10,380 summaries and component entries after
// the diff), as dtaintd -summary-size would be set for images this size. With the
// 4096-entry default the prior scan evicts the stable functions before the
// diff re-analyzes the mutated binaries, and the diff never reads the store.
const diffStoreEntries = 1 << 15

// prepare runs the prior nightly scan of the old image through a fresh
// report cache and summary store — untimed, as in CI the diff follows a
// scan that already happened.
func (d *diffInstance) prepare() (err error) {
	if d.cache, err = fleet.NewCache(0, ""); err != nil {
		return err
	}
	if d.store, err = sumstore.NewStore(diffStoreEntries, ""); err != nil {
		return err
	}
	t0 := time.Now()
	prior, err := fleet.ScanImage(context.Background(), d.vp.Old, fleet.Options{
		Workers: d.workers, Cache: d.cache, SummaryStore: d.store, Analysis: analysisOptions(),
	})
	if err != nil {
		return fmt.Errorf("diff prior scan: %w", err)
	}
	d.priorWall = time.Since(t0)
	d.priorUnits, d.priorFailed = prior.Candidates, prior.Candidates-prior.Scanned-prior.Cached
	return nil
}

func (d *diffInstance) run(o passObs) passResult {
	sp := o.start("diff.diff")
	s0, c0 := d.store.Stats(), d.cache.Stats()
	rep, err := diff.Diff(context.Background(), d.vp.Old, d.vp.New, diff.Options{
		Workers: d.workers, Cache: d.cache, SummaryStore: d.store,
		Analysis: o.analysis(analysisOptions(), sp),
	})
	sp.End()
	res := passResult{attempted: d.priorUnits + len(d.truth), failed: d.priorFailed}
	if err != nil {
		res.failed += len(d.truth)
		return res
	}
	res.facts = storeFacts(s0, d.store.Stats())
	c1 := d.cache.Stats()
	res.facts["fleet.cache_hits"] = float64(c1.Hits - c0.Hits)
	res.facts["fleet.cache_misses"] = float64(c1.Misses - c0.Misses)
	res.facts["diff.replayed"] = float64(rep.Replayed)
	res.facts["diff.reanalyzed"] = float64(rep.Reanalyzed)
	if n := rep.Replayed + rep.Reanalyzed; n > 0 {
		res.facts["diff.skip_ratio"] = float64(rep.Replayed) / float64(n)
	}
	res.facts["diff.prior_ms"] = ms(d.priorWall)
	seen := 0
	for _, b := range rep.Binaries {
		if b.Duration > 0 {
			res.units = append(res.units, b.Duration)
		}
		want, ok := d.truth[b.Path]
		got := pairTruth{status: b.Status, oldSource: b.OldSource, newSource: b.NewSource,
			newF: b.New, fixed: b.Fixed, persists: b.Persisting}
		if ok {
			seen++
		}
		if !ok || b.Error != "" || got != want {
			res.failed++
		}
	}
	res.failed += len(d.truth) - seen
	return res
}

func (d *diffInstance) probeInputs() []probeInput { return d.probes }

// distinctBinaries lists the distinct FWELF executables of the images.
func distinctBinaries(images ...[]byte) ([]probeInput, error) {
	seen := make(map[string]bool)
	var in []probeInput
	for _, img := range images {
		_, fs, err := firmware.Unpack(img)
		if err != nil {
			return nil, err
		}
		for _, f := range fs.Files {
			if !bytes.HasPrefix(f.Data, image.Magic[:]) || seen[string(f.Data)] {
				continue
			}
			seen[string(f.Data)] = true
			in = append(in, probeInput{raw: f.Data})
		}
	}
	return in, nil
}
