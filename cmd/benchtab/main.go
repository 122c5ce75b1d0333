// Command benchtab regenerates every table and figure of the paper's
// evaluation from the synthetic corpus:
//
//	benchtab -all               # everything
//	benchtab -fig1              # Figure 1: emulation success by year
//	benchtab -table1            # Table I: sources and sinks
//	benchtab -table2            # Table II: firmware summary
//	benchtab -table3            # Table III: detection results
//	benchtab -table4            # Table IV: previously-reported CVEs
//	benchtab -table5            # Table V: zero-days
//	benchtab -table6            # Table VI: CPU/memory usage
//	benchtab -table7            # Table VII: DTaint (parallel + sequential DDG) vs top-down baseline
//	benchtab -ablate            # feature ablations (alias, sse, structsim, value ranges)
//	benchtab -corpus            # corpus-scale scans: summary store cold vs warm
//	benchtab -diff              # differential scan of a vendor re-release
//	benchtab -screen            # precision/recall over the screening corpus
//
// -corpus builds an overlap corpus (many images cycling a few binary
// variants that share a common module) and scans it four times — an
// uncached baseline, cold, warm, and a resummarize pass that replays
// analysis from the summary store alone. Findings must be bit-identical
// across all passes or the run fails. -corpus-scale sizes the corpus
// (1.0 = 200 images; 10 = 2,000), -corpus-workers the scan pool, and
// -min-corpus-speedup / -min-corpus-hits turn the warm-re-scan speedup
// and the replay hit rate into CI gates.
//
// -diff builds a version pair (a re-release mutating a few binaries at
// function granularity), fleet-scans the old version to warm the report
// cache and summary store, then diffs old→new and records the skip rate
// (analysis units replayed instead of re-analyzed) and the delta-cost
// ratio (diff wall over full-rescan wall). The diff's re-analysis count
// and finding classification are asserted against the generator's
// ground truth. -diff-scale sizes the pair, -diff-workers the pool, and
// -min-diff-skip turns the skip rate into a CI gate.
//
// -screen runs the 200-case screening corpus three times — full
// pipeline, with the interval value-range domain ablated, and with the
// SSE indirect-call resolver ablated — and prints the confusion rows.
// -min-precision/-min-recall make it a CI gate: the process exits
// non-zero when the full pipeline falls below either threshold
// (`make check` runs it with both set to 1).
//
// -scale (default 0.25) shrinks the filler code of the synthetic binaries;
// detection results are scale-invariant, runtimes and size columns scale.
//
// benchtab prints tables and gates; it writes no file. Performance
// records (BENCH_*.json) come from the profbench module's -profile mode.
package main

import (
	"flag"
	"fmt"
	"os"

	"dtaint/internal/bench"
	"dtaint/internal/corpus"
)

func main() {
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		fig1    = flag.Bool("fig1", false, "Figure 1: emulation success by release year")
		table1  = flag.Bool("table1", false, "Table I: sources and sinks")
		table2  = flag.Bool("table2", false, "Table II: firmware summary")
		table3  = flag.Bool("table3", false, "Table III: detection results")
		table4  = flag.Bool("table4", false, "Table IV: previously-reported vulnerabilities")
		table5  = flag.Bool("table5", false, "Table V: zero-day vulnerabilities")
		table6  = flag.Bool("table6", false, "Table VI: resource usage")
		table7  = flag.Bool("table7", false, "Table VII: time cost vs the top-down baseline")
		ablate  = flag.Bool("ablate", false, "feature ablations")
		screen  = flag.Bool("screen", false, "precision/recall over a randomized screening corpus")
		minPrec = flag.Float64("min-precision", 0, "with -screen: exit non-zero when full-pipeline precision falls below this")
		minRec  = flag.Float64("min-recall", 0, "with -screen: exit non-zero when full-pipeline recall falls below this")
		scale   = flag.Float64("scale", 0.25, "corpus scale factor in (0, 1]")

		corpusX = flag.Bool("corpus", false, "corpus-scale scans: summary store cold vs warm")
		cOpts   corpusOpts

		diffX = flag.Bool("diff", false, "differential scan of a vendor re-release version pair")
		dOpts diffOpts
	)
	flag.Float64Var(&cOpts.scale, "corpus-scale", 0.25, "with -corpus: overlap corpus scale (1.0 = 200 images)")
	flag.IntVar(&cOpts.workers, "corpus-workers", 0, "with -corpus: scan worker pool (0 = auto)")
	flag.Float64Var(&cOpts.minSpeedup, "min-corpus-speedup", 0, "with -corpus: exit non-zero when the warm re-scan speedup falls below this")
	flag.Float64Var(&cOpts.minHitRate, "min-corpus-hits", 0, "with -corpus: exit non-zero when the resummarize summary hit rate falls below this")
	flag.Float64Var(&dOpts.scale, "diff-scale", 0.25, "with -diff: version pair scale (1.0 = 12 binaries)")
	flag.IntVar(&dOpts.workers, "diff-workers", 0, "with -diff: analysis worker pool (0 = auto)")
	flag.Float64Var(&dOpts.minSkip, "min-diff-skip", 0, "with -diff: exit non-zero when the replay skip rate falls below this")
	flag.Parse()

	if err := run(*all, *fig1, *table1, *table2, *table3, *table4, *table5,
		*table6, *table7, *ablate, *corpusX, *diffX, *screen, *minPrec, *minRec, *scale, cOpts, dOpts); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// corpusOpts bundles the -corpus knobs and gates.
type corpusOpts struct {
	scale      float64
	workers    int
	minSpeedup float64
	minHitRate float64
}

// diffOpts bundles the -diff knobs and gate.
type diffOpts struct {
	scale   float64
	workers int
	minSkip float64
}

func run(all, fig1, t1, t2, t3, t4, t5, t6, t7, ablate, corpusScan, diffScan, screen bool, minPrec, minRec, scale float64, cOpts corpusOpts, dOpts diffOpts) error {
	none := !(fig1 || t1 || t2 || t3 || t4 || t5 || t6 || t7 || ablate || corpusScan || diffScan || screen)
	if all || none {
		fig1, t1, t2, t3, t4, t5, t6, t7 = true, true, true, true, true, true, true, true
		ablate, corpusScan, diffScan, screen = true, true, true, true
	}
	w := os.Stdout
	if fig1 {
		if err := bench.Figure1(w); err != nil {
			return err
		}
	}
	if t1 {
		if err := bench.Table1(w); err != nil {
			return err
		}
	}
	if t2 {
		if err := bench.Table2(w, scale); err != nil {
			return err
		}
	}
	if t3 || t4 || t5 {
		runs, err := bench.RunStudy(scale)
		if err != nil {
			return err
		}
		if t3 {
			if err := bench.Table3(w, runs); err != nil {
				return err
			}
		}
		if t4 {
			if err := bench.Table4(w, runs); err != nil {
				return err
			}
		}
		if t5 {
			if err := bench.Table5(w, runs); err != nil {
				return err
			}
		}
	}
	if t6 {
		if err := bench.Table6(w, scale); err != nil {
			return err
		}
	}
	if t7 {
		if err := bench.Table7(w, scale); err != nil {
			return err
		}
	}
	if ablate {
		if err := bench.Ablations(w, scale); err != nil {
			return err
		}
	}
	if corpusScan {
		workers := cOpts.workers
		if workers <= 0 {
			workers = bench.Table7Workers()
		}
		cr, err := bench.Corpus(w, corpus.OverlapAt(cOpts.scale), workers)
		if err != nil {
			return err
		}
		if cr.WarmSpeedup < cOpts.minSpeedup {
			return fmt.Errorf("corpus warm speedup %.2fx below -min-corpus-speedup %.2f", cr.WarmSpeedup, cOpts.minSpeedup)
		}
		if cr.SummaryHitRate < cOpts.minHitRate {
			return fmt.Errorf("corpus summary hit rate %.3f below -min-corpus-hits %.3f", cr.SummaryHitRate, cOpts.minHitRate)
		}
	}
	if diffScan {
		workers := dOpts.workers
		if workers <= 0 {
			workers = bench.Table7Workers()
		}
		dr, err := bench.Diff(w, corpus.VersionPairAt(dOpts.scale), workers)
		if err != nil {
			return err
		}
		if dr.SkipRate < dOpts.minSkip {
			return fmt.Errorf("diff skip rate %.3f below -min-diff-skip %.3f", dr.SkipRate, dOpts.minSkip)
		}
	}
	if screen {
		stats, err := bench.Screening(w, 200)
		if err != nil {
			return err
		}
		if stats.Precision < minPrec {
			return fmt.Errorf("screening precision %.3f below -min-precision %.3f", stats.Precision, minPrec)
		}
		if stats.Recall < minRec {
			return fmt.Errorf("screening recall %.3f below -min-recall %.3f", stats.Recall, minRec)
		}
	}
	return nil
}
