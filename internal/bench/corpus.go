package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dtaint/internal/corpus"
	"dtaint/internal/fleet"
	"dtaint/internal/sumstore"
)

// CorpusRecord is the corpus-scale measurement: the overlap corpus's
// shape, the four passes, and the two headline numbers — the warm
// re-scan speedup (cold wall / warm wall) and the summary-store hit rate
// of the resummarize pass. The -corpus gate reads both.
type CorpusRecord struct {
	Images            int
	Variants          int
	UniqueBinaries    int
	DuplicateBinaries int
	Workers           int
	Passes            []CorpusPass
	WarmSpeedup       float64
	SummaryHitRate    float64
}

// CorpusPass is one pass over the overlap corpus. Cache and summary
// counters are per-pass deltas, not cumulative store totals.
type CorpusPass struct {
	Name            string
	Images          int
	Candidates      int
	Scanned         int
	Cached          int
	Vulnerabilities int
	VulnerablePaths int
	CacheHits       uint64
	CacheMisses     uint64
	SummaryHits     uint64
	SummaryMisses   uint64
	WallSeconds     float64
	BinariesPerSec  float64
}

// Corpus measures corpus-scale scanning over an overlap corpus (many
// images cycling a few binary variants that share a common module). Four
// passes, all through fleet orchestration with the given worker count:
//
//   - baseline: one image per variant, no caches — the store-off
//     reference every cached pass must reproduce bit-identically.
//   - cold: the whole corpus through a fresh shared report cache and
//     summary store. Duplicate binaries collapse onto the report cache;
//     shared-module functions of the remaining variants collapse onto
//     the summary store.
//   - warm: the whole corpus again through the same tiers — the
//     re-scan-after-re-release case. Every binary is a report-cache hit.
//   - resummarize: a fresh report cache over the same summary store —
//     the analysis-replay case (e.g. after a report-schema change).
//     Every function summary and component entry replays from the store.
//
// Findings are asserted identical across all passes before the record is
// returned; a mismatch is an error, not a number in a table.
func Corpus(w io.Writer, spec corpus.OverlapSpec, workers int) (*CorpusRecord, error) {
	fmt.Fprintln(w, "== Corpus: overlap corpus scans, summary store cold vs warm ==")
	c, err := corpus.BuildOverlapCorpus(spec)
	if err != nil {
		return nil, err
	}
	spec = c.Spec
	fmt.Fprintf(w, "(%d images, %d variants; %.0f%% duplicate binaries, %.0f%% shared functions; %d workers)\n",
		spec.Images, spec.Variants,
		100*spec.DuplicateBinaryRatio(), 100*spec.SharedFunctionRatio(), workers)

	ctx := context.Background()

	// Baseline: the store-off reference, one image per variant.
	baseRefs := make(map[string]string)
	var baseWall float64
	for v := 0; v < spec.Variants; v++ {
		rep, err := fleet.ScanImage(ctx, c.Images[v], fleet.Options{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("bench corpus baseline: %w", err)
		}
		baseWall += rep.Wall.Seconds()
		for _, bs := range rep.Binaries {
			if bs.Analysis != nil {
				baseRefs[bs.SHA256] = binarySignature(bs)
			}
		}
	}

	cache, err := fleet.NewCache(0, "")
	if err != nil {
		return nil, err
	}
	store, err := sumstore.NewStore(0, "")
	if err != nil {
		return nil, err
	}

	rec := &CorpusRecord{
		Images:   spec.Images,
		Variants: spec.Variants,
		Workers:  workers,
	}
	rec.Passes = append(rec.Passes, CorpusPass{
		Name:        "baseline",
		Images:      spec.Variants,
		WallSeconds: baseWall,
	})

	fmt.Fprintln(w, "Pass         Images  Binaries  Scanned  Cached  Vulns  SumHit  SumMiss  Wall(s)   Bin/s")
	type passDef struct {
		name  string
		cache *fleet.Cache
	}
	passes := []passDef{{"cold", cache}, {"warm", cache}, {"resummarize", nil}}
	sigs := make(map[string]string)
	for _, p := range passes {
		pcache := p.cache
		if pcache == nil {
			if pcache, err = fleet.NewCache(0, ""); err != nil {
				return nil, err
			}
		}
		c0, s0 := pcache.Stats(), store.Stats()
		rep, err := fleet.ScanCorpus(ctx, c.Images, fleet.Options{
			Workers:      workers,
			Cache:        pcache,
			SummaryStore: store,
		})
		if err != nil {
			return nil, fmt.Errorf("bench corpus %s: %w", p.name, err)
		}
		c1, s1 := pcache.Stats(), store.Stats()

		if err := checkAgainstBaseline(rep, baseRefs); err != nil {
			return nil, fmt.Errorf("bench corpus %s: %w", p.name, err)
		}
		sigs[p.name] = reportSignature(rep)

		wall := rep.Wall.Seconds()
		binPerSec := 0.0
		if wall > 0 {
			binPerSec = float64(rep.Totals.Candidates) / wall
		}
		pass := CorpusPass{
			Name:            p.name,
			Images:          len(rep.Images),
			Candidates:      rep.Totals.Candidates,
			Scanned:         rep.Totals.Scanned,
			Cached:          rep.Totals.Cached,
			Vulnerabilities: rep.Totals.Vulnerabilities,
			VulnerablePaths: rep.Totals.VulnerablePaths,
			CacheHits:       c1.Hits - c0.Hits,
			CacheMisses:     c1.Misses - c0.Misses,
			SummaryHits:     s1.Hits + s1.DiskHits - s0.Hits - s0.DiskHits,
			SummaryMisses:   s1.Misses - s0.Misses,
			WallSeconds:     wall,
			BinariesPerSec:  binPerSec,
		}
		rec.Passes = append(rec.Passes, pass)
		rec.UniqueBinaries = rep.UniqueBinaries
		rec.DuplicateBinaries = rep.DuplicateBinaries
		fmt.Fprintf(w, "%-11s  %6d  %8d  %7d  %6d  %5d  %6d  %7d  %7.3f  %6.1f\n",
			p.name, pass.Images, pass.Candidates, pass.Scanned, pass.Cached,
			pass.Vulnerabilities, pass.SummaryHits, pass.SummaryMisses, wall, binPerSec)
	}

	if sigs["warm"] != sigs["cold"] || sigs["resummarize"] != sigs["cold"] {
		return nil, fmt.Errorf("bench corpus: pass reports diverge (cold/warm/resummarize must be bit-identical)")
	}

	cold, warm, resum := &rec.Passes[1], &rec.Passes[2], &rec.Passes[3]
	if warm.WallSeconds > 0 {
		rec.WarmSpeedup = cold.WallSeconds / warm.WallSeconds
	}
	if n := resum.SummaryHits + resum.SummaryMisses; n > 0 {
		rec.SummaryHitRate = float64(resum.SummaryHits) / float64(n)
	}
	fmt.Fprintf(w, "warm re-scan speedup: %.1fx; replay summary hit rate: %.1f%%; findings identical across passes\n\n",
		rec.WarmSpeedup, 100*rec.SummaryHitRate)
	return rec, nil
}

// binarySignature canonicalizes one binary analysis for cross-pass
// comparison: every analysis output except wall-clock timings (cached
// entries keep the producing run's timings by design).
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

// checkAgainstBaseline verifies every analyzed binary in the corpus
// report reproduces the uncached baseline analysis for the same bytes.
func checkAgainstBaseline(rep *fleet.CorpusReport, refs map[string]string) error {
	for _, ir := range rep.Images {
		for _, bs := range ir.Binaries {
			if bs.Analysis == nil {
				continue
			}
			want, ok := refs[bs.SHA256]
			if !ok {
				return fmt.Errorf("%s: binary %s not in baseline", ir.Product, bs.Path)
			}
			if got := binarySignature(bs); got != want {
				return fmt.Errorf("%s %s: findings differ from store-off baseline", ir.Product, bs.Path)
			}
		}
	}
	return nil
}

// reportSignature canonicalizes a whole corpus report.
func reportSignature(rep *fleet.CorpusReport) string {
	var b strings.Builder
	for _, ir := range rep.Images {
		fmt.Fprintf(&b, "%s/%s\n", ir.Product, ir.Version)
		for _, bs := range ir.Binaries {
			fmt.Fprintf(&b, "  %s %s", bs.Path, bs.SHA256)
			if bs.Analysis != nil {
				b.WriteByte(' ')
				b.WriteString(binarySignature(bs))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
