// Command dtaint analyzes a firmware image or program executable for
// taint-style vulnerabilities:
//
//	dtaint -fw dir645.fwimg -bin /htdocs/cgibin
//	dtaint -exe openssl.fwelf
//	dtaint -fw camera.fwimg -bin /usr/bin/centaurus -module DS-2CD6233F
//	dtaint -exe prog.fwelf -dis          # disassemble instead of analyzing
//	dtaint -exe prog.fwelf -workers 8    # analysis worker count
//	dtaint -fw camera.fwimg -rootfs-all  # scan every executable in the image
//
// -ablate takes a comma-separated feature list (alias, sse, structsim,
// vrange) and disables those analyses. Ablating sse turns off structured
// symbolic expressions: alias rewriting falls back to the paper's
// pairwise Algorithm 1 and indirect calls are resolved by layout
// similarity alone. Ablating vrange turns off the
// interval value-range domain: verdicts fall back to structural bounds
// and the off-by-one/length-truncation classes disappear. -paths prints
// every vulnerable path rather than the deduplicated vulnerability
// list; -all also prints sanitized paths. -json prints the report in
// the schema dtaintd serves: the per-binary Report (sanitized paths
// only with -all), the ImageReport with -rootfs-all, the DiffReport
// with -diff.
// -workers N sets the worker count for both parallel analysis phases —
// the per-function pass and the bottom-up SCC-DAG scheduler (0, the
// default, uses GOMAXPROCS; negative values are rejected).
// -vocab file.json replaces the embedded source/sink/sanitizer
// vocabulary with a JSON spec (see DESIGN.md §3.5); malformed specs
// are rejected with line- and field-precise errors before any
// analysis starts.
//
// -rootfs-all switches from one binary to the whole image: every FWELF
// executable in the rootfs is scanned through the fleet orchestrator
// (bounded worker pool, panic isolation) and per-image totals are
// printed; -cache-dir reuses reports across runs. -summary-dir (valid
// with and without -rootfs-all) keeps a persistent function-summary
// store, so re-runs and binaries sharing code replay per-function
// analysis instead of repeating it. -exit-code makes the
// process exit 2 when any undeduplicated vulnerable path is found, so
// CI pipelines can gate on scan results; it exits 3 when the stall
// watchdog abandoned any binary and nothing vulnerable was found — an
// incomplete scan must never look like a clean one.
//
// -stall-timeout (with -rootfs-all) arms a watchdog over the scan's
// telemetry stream: a binary whose analysis emits no event for that
// long is abandoned and reported as "stalled", and with -debug-dir a
// diagnostic bundle (goroutine dump, trace, metrics, event journal,
// partial report) is written per stall.
//
// -diff compares two firmware versions instead of scanning one:
//
//	dtaint -diff old.fwimg new.fwimg
//	dtaint -diff -cache-dir .cache -summary-dir .sums old.fwimg new.fwimg
//	dtaint -diff -exit-code old.fwimg new.fwimg   # exit 2 on NEW findings only
//
// Binaries are paired by rootfs path and content hash; unchanged ones
// replay from -cache-dir, changed ones re-analyze with unchanged
// functions replaying from -summary-dir, and every finding classifies
// as new, fixed, or persisting across the versions. -json emits the
// DiffReport; -report writes the Markdown rendering. With -diff,
// -exit-code gates on *new* findings: a release that only carries
// known, persisting findings does not fail the pipeline.
//
// Observability (all off by default):
//
//	dtaint -fw dir645.fwimg -bin /htdocs/cgibin -trace-out trace.json
//	dtaint -fw dir645.fwimg -rootfs-all -progress
//	dtaint -exe prog.fwelf -log-level debug -log-format json
//
// -trace-out records every pipeline stage (and each analyzed function)
// as a span and writes Chrome trace_event JSON loadable in Perfetto or
// chrome://tracing. -progress prints per-stage progress lines to
// stderr — percentages and ETA for the two per-function phases —
// rendered from the same live event bus dtaintd streams over SSE.
// -log-level enables structured logging (log/slog) to stderr;
// -log-format picks text or json lines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dtaint"
	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/firmware"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

func main() {
	var (
		fwPath    = flag.String("fw", "", "firmware image file (FWIMG container)")
		exePath   = flag.String("exe", "", "program executable file (FWELF)")
		binPath   = flag.String("bin", "", "path of the binary inside the firmware rootfs")
		module    = flag.String("module", "", "restrict analysis to a study product's network module")
		ablate    = flag.String("ablate", "", "comma-separated analysis features to disable: alias, sse, structsim, vrange")
		paths     = flag.Bool("paths", false, "print every vulnerable path, not just deduplicated vulnerabilities")
		showAll   = flag.Bool("all", false, "also print sanitized paths")
		dis       = flag.Bool("dis", false, "disassemble the executable instead of analyzing")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		mdOut     = flag.String("report", "", "write a Markdown report to this file")
		traceFn   = flag.String("trace", "", "print the symbolic-analysis listing of one function (the paper's Figure 6) and exit")
		workers   = flag.Int("workers", 0, "worker count for both analysis phases (0 = GOMAXPROCS)")
		vocabPath = flag.String("vocab", "", "source/sink/sanitizer vocabulary spec (JSON; empty = embedded default)")
		allBins   = flag.Bool("rootfs-all", false, "scan every FWELF executable in the firmware rootfs (requires -fw)")
		diffMode  = flag.Bool("diff", false, "diff two firmware images given as positional arguments: dtaint -diff old.fwimg new.fwimg")
		cacheDir  = flag.String("cache-dir", "", "with -rootfs-all: persistent report cache directory")
		sumDir    = flag.String("summary-dir", "", "persistent function-summary store directory, shared across runs")
		exitCode  = flag.Bool("exit-code", false, "exit 2 when undeduplicated vulnerable paths are found")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event JSON of the pipeline stages to this file")
		progress  = flag.Bool("progress", false, "print per-stage progress lines to stderr")
		stallWait = flag.Duration("stall-timeout", 0, "with -rootfs-all: abandon binaries when no telemetry event flows for this long (0 = off)")
		debugDir  = flag.String("debug-dir", "", "with -stall-timeout: write one diagnostic bundle directory per stall here")
		logLevel  = flag.String("log-level", "", "enable structured logging at this level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()
	if err := checkArgs(*diffMode, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dtaint:", err)
		os.Exit(1)
	}

	if *traceFn != "" {
		v, err := loadVocabulary(*vocabPath)
		if err == nil {
			err = runTrace(os.Stdout, *fwPath, *exePath, *binPath, *traceFn, v)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtaint:", err)
			os.Exit(1)
		}
		return
	}
	o := cliOptions{
		fwPath: *fwPath, exePath: *exePath, binPath: *binPath,
		module: *module, mdOut: *mdOut, workers: *workers,
		paths: *paths, showAll: *showAll, dis: *dis, jsonOut: *jsonOut,
		cacheDir: *cacheDir, sumDir: *sumDir, traceOut: *traceOut, progress: *progress,
		stallWait: *stallWait, debugDir: *debugDir,
		logLevel: *logLevel, logFormat: *logFormat, vocabPath: *vocabPath,
	}
	if err := o.applyAblations(*ablate); err != nil {
		fmt.Fprintln(os.Stderr, "dtaint:", err)
		os.Exit(1)
	}
	// vulnPaths drives -exit-code: vulnerable paths for scans, NEW
	// findings for diffs (persisting findings don't fail a release gate).
	// stalledBins counts watchdog-abandoned binaries: those analyses
	// never finished, so a clean exit would be a false all-clear.
	var vulnPaths, stalledBins int
	var err error
	switch {
	case *diffMode:
		vulnPaths, err = runDiff(o, flag.Arg(0), flag.Arg(1))
	case *allBins:
		vulnPaths, stalledBins, err = runFleet(o)
	default:
		vulnPaths, err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtaint:", err)
		os.Exit(1)
	}
	if *exitCode {
		if vulnPaths > 0 {
			os.Exit(2)
		}
		if stalledBins > 0 {
			// Distinct from both "clean" (0) and "found" (2): the scan is
			// incomplete, not vulnerability-free.
			os.Exit(3)
		}
	}
}

// checkArgs rejects positional arguments the mode does not take. The flag
// package stops parsing at the first positional argument, so a flag
// written after one would otherwise be dropped without a word.
func checkArgs(diff bool, args []string) error {
	switch {
	case diff && len(args) < 2:
		return errors.New("-diff takes exactly two image arguments: old.fwimg new.fwimg")
	case diff && len(args) > 2:
		return fmt.Errorf("unexpected argument %q after the two -diff images: flags go before positional arguments", args[2])
	case !diff && len(args) > 0:
		return fmt.Errorf("unexpected argument %q: flags go before positional arguments, and only -diff takes any", args[0])
	}
	return nil
}

// cliOptions carries the parsed analysis flags into run and runFleet.
type cliOptions struct {
	fwPath, exePath, binPath string
	module, mdOut            string
	workers                  int
	noAlias, noSSE           bool
	noSim, noVRange          bool
	paths, showAll           bool
	dis, jsonOut             bool
	cacheDir, sumDir         string
	traceOut                 string
	progress                 bool
	stallWait                time.Duration
	debugDir                 string
	logLevel, logFormat      string
	vocabPath                string
}

// vocabulary loads the -vocab spec; an empty path keeps the embedded
// default and returns no option. Malformed specs abort with the vocab
// package's line/field-precise error.
func (o cliOptions) vocabulary() ([]dtaint.Option, error) {
	if o.vocabPath == "" {
		return nil, nil
	}
	v, err := dtaint.LoadVocabulary(o.vocabPath)
	if err != nil {
		return nil, err
	}
	return []dtaint.Option{dtaint.WithVocabulary(v)}, nil
}

// applyAblations folds the -ablate list into the feature switches.
func (o *cliOptions) applyAblations(list string) error {
	if list == "" {
		return nil
	}
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(name) {
		case "alias":
			o.noAlias = true
		case "sse":
			o.noSSE = true
		case "structsim":
			o.noSim = true
		case "vrange":
			o.noVRange = true
		case "":
		default:
			return fmt.Errorf("unknown -ablate feature %q (want alias, sse, structsim, or vrange)", name)
		}
	}
	return nil
}

// observability translates the tracing/progress/logging flags into
// analyzer options. The returned flush writes -trace-out (if any) once
// the analysis has finished and must run on the success path only.
func (o cliOptions) observability() (opts []dtaint.Option, flush func() error, err error) {
	var tracer *dtaint.Tracer
	if o.traceOut != "" || o.progress {
		tracer = dtaint.NewTracer()
		opts = append(opts, dtaint.WithTracer(tracer))
	}
	if o.progress {
		// -progress rides the event bus: the tracer's spans are bridged
		// into a journal (by dtaint.New) and the printer renders the
		// events — the same stream dtaintd serves over SSE.
		j := dtaint.NewEventJournal(0)
		j.AttachProgressPrinter(os.Stderr)
		opts = append(opts, dtaint.WithEventJournal(j))
	}
	if o.logLevel != "" {
		logger, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, dtaint.WithLogger(logger))
	}
	flush = func() error {
		if o.traceOut == "" {
			return nil
		}
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dtaint: wrote trace to %s\n", o.traceOut)
		return nil
	}
	return opts, flush, nil
}

// analyzerOptions translates the shared flags into library options.
func analyzerOptions(module string, workers int, noAlias, noSSE, noSim, noVRange bool) []dtaint.Option {
	var opts []dtaint.Option
	if noAlias {
		opts = append(opts, dtaint.WithoutAliasAnalysis())
	}
	if noSSE {
		opts = append(opts, dtaint.WithoutSSE())
	}
	if noSim {
		opts = append(opts, dtaint.WithoutStructSimilarity())
	}
	if noVRange {
		opts = append(opts, dtaint.WithoutValueRange())
	}
	if module != "" {
		filter := dtaint.StudyModuleFilter(module)
		if filter != nil {
			opts = append(opts, dtaint.WithFunctionFilter(filter))
		}
	}
	if workers > 0 {
		opts = append(opts, dtaint.WithParallelism(workers))
	}
	return opts
}

// fleetOptions translates the shared orchestration flags (-workers,
// -cache-dir, -summary-dir) into fleet options for runFleet and runDiff.
func (o cliOptions) fleetOptions() ([]dtaint.FleetOption, error) {
	var fopts []dtaint.FleetOption
	if o.workers > 0 {
		fopts = append(fopts, dtaint.WithFleetWorkers(o.workers))
	}
	if o.cacheDir != "" {
		cache, err := dtaint.NewFleetCache(0, o.cacheDir)
		if err != nil {
			return nil, err
		}
		fopts = append(fopts, dtaint.WithFleetCache(cache))
	}
	if o.sumDir != "" {
		store, err := dtaint.NewSummaryStore(0, o.sumDir)
		if err != nil {
			return nil, err
		}
		fopts = append(fopts, dtaint.WithFleetSummaryStore(store))
	}
	if o.stallWait > 0 {
		fopts = append(fopts, dtaint.WithFleetStallTimeout(o.stallWait))
	}
	if o.debugDir != "" {
		fopts = append(fopts, dtaint.WithFleetDebugDir(o.debugDir))
	}
	return fopts, nil
}

// runFleet scans every executable of the firmware rootfs through the
// fleet orchestrator and prints the per-image report. It returns the
// total undeduplicated vulnerable-path count and the watchdog-stalled
// binary count for -exit-code.
func runFleet(o cliOptions) (int, int, error) {
	if o.workers < 0 {
		return 0, 0, fmt.Errorf("-workers must be >= 0 (0 uses GOMAXPROCS), got %d", o.workers)
	}
	if o.fwPath == "" {
		return 0, 0, fmt.Errorf("-rootfs-all requires -fw")
	}
	data, err := os.ReadFile(o.fwPath)
	if err != nil {
		return 0, 0, err
	}
	fopts, err := o.fleetOptions()
	if err != nil {
		return 0, 0, err
	}
	aopts, flushTrace, err := o.observability()
	if err != nil {
		return 0, 0, err
	}
	vopts, err := o.vocabulary()
	if err != nil {
		return 0, 0, err
	}
	aopts = append(aopts, vopts...)
	aopts = append(aopts, analyzerOptions("", 0, o.noAlias, o.noSSE, o.noSim, o.noVRange)...)
	a := dtaint.New(aopts...)
	img, err := a.ScanFirmwareFleet(context.Background(), data, fopts...)
	if err != nil {
		return 0, 0, err
	}
	if err := flushTrace(); err != nil {
		return 0, 0, err
	}
	if o.jsonOut {
		return img.VulnerablePaths, img.Stalled, printJSON(img)
	}
	fmt.Printf("image %s %s %s (%d): %d candidate binaries\n",
		img.Vendor, img.Product, img.Version, img.Year, img.Candidates)
	for _, b := range img.Binaries {
		switch b.Status {
		case dtaint.BinaryOK, dtaint.BinaryCached:
			fmt.Printf("  %-32s %-7s %3d vulnerabilities, %3d paths  (%v)\n",
				b.Path, b.Status, len(b.Analysis.Vulnerabilities()), len(b.Analysis.VulnerablePaths()), b.Duration)
		default:
			fmt.Printf("  %-32s %-7s %s\n", b.Path, b.Status, b.Error)
		}
	}
	fmt.Printf("totals: %d scanned, %d cached, %d failed, %d stalled, %d skipped; %d vulnerabilities over %d paths; wall %v\n",
		img.Scanned, img.Cached, img.Failed, img.Stalled, img.Skipped,
		img.Vulnerabilities, img.VulnerablePaths, img.Wall)
	if img.Cache != (dtaint.CacheStats{}) {
		fmt.Printf("cache: %d hits (%d disk), %d misses, %d evictions, %d entries\n",
			img.Cache.Hits, img.Cache.DiskHits, img.Cache.Misses, img.Cache.Evictions, img.Cache.Entries)
	}
	return img.VulnerablePaths, img.Stalled, nil
}

// runDiff diffs two firmware versions and prints the cross-version
// report. It returns the NEW finding count — not the total — so
// -exit-code fails a pipeline only when a release introduces findings,
// not when it merely carries known persisting ones.
func runDiff(o cliOptions, oldPath, newPath string) (int, error) {
	if o.workers < 0 {
		return 0, fmt.Errorf("-workers must be >= 0 (0 uses GOMAXPROCS), got %d", o.workers)
	}
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return 0, err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return 0, err
	}
	fopts, err := o.fleetOptions()
	if err != nil {
		return 0, err
	}
	aopts, flushTrace, err := o.observability()
	if err != nil {
		return 0, err
	}
	vopts, err := o.vocabulary()
	if err != nil {
		return 0, err
	}
	aopts = append(aopts, vopts...)
	aopts = append(aopts, analyzerOptions("", 0, o.noAlias, o.noSSE, o.noSim, o.noVRange)...)
	rep, err := dtaint.New(aopts...).ScanFirmwareDiff(context.Background(), oldData, newData, fopts...)
	if err != nil {
		return 0, err
	}
	if err := flushTrace(); err != nil {
		return 0, err
	}
	if o.mdOut != "" {
		f, err := os.Create(o.mdOut)
		if err != nil {
			return 0, err
		}
		if err := rep.WriteMarkdown(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		fmt.Printf("wrote %s\n", o.mdOut)
		return rep.NewFindings, nil
	}
	if o.jsonOut {
		return rep.NewFindings, printJSON(rep)
	}
	fmt.Printf("diff %s %s: %s → %s\n", rep.New.Vendor, rep.New.Product,
		rep.Old.Version, rep.New.Version)
	fmt.Printf("binaries: %d unchanged, %d changed, %d added, %d removed, %d moved\n",
		rep.Unchanged, rep.Changed, rep.Added, rep.Removed, rep.Moved)
	fmt.Printf("cost: %d replayed, %d re-analyzed (summary hit rate %.0f%%); wall %v\n",
		rep.Replayed, rep.Reanalyzed, 100*rep.SummaryHitRate, rep.Wall)
	for _, b := range rep.Binaries {
		if b.Status == dtaint.DiffUnchanged && b.Error == "" {
			continue
		}
		name := b.Path
		if b.OldPath != "" {
			name = b.OldPath + " -> " + b.Path
		}
		if b.Error != "" {
			fmt.Printf("  %-32s %-9s error: %s\n", name, b.Status, b.Error)
			continue
		}
		fmt.Printf("  %-32s %-9s %d new, %d fixed, %d persisting\n",
			name, b.Status, b.New, b.Fixed, b.Persisting)
		for _, fd := range b.Findings {
			if fd.Status != dtaint.FindingNew {
				continue
			}
			f := fd.Finding
			fmt.Printf("    NEW %s: %s -> %s in %s@%#x (%d paths)\n",
				f.Class, f.Source, f.Sink, f.SinkFunc, f.SinkAddr, fd.Paths)
		}
	}
	fmt.Printf("findings: %d new, %d fixed, %d persisting\n",
		rep.NewFindings, rep.FixedFindings, rep.PersistingFindings)
	return rep.NewFindings, nil
}

func run(o cliOptions) (int, error) {
	if o.workers < 0 {
		return 0, fmt.Errorf("-workers must be >= 0 (0 uses GOMAXPROCS), got %d", o.workers)
	}
	raw, err := loadExecutable(o.fwPath, o.exePath, o.binPath)
	if err != nil {
		return 0, err
	}
	if o.dis {
		bin, err := image.Parse(raw)
		if err != nil {
			return 0, err
		}
		text, err := asm.Disassemble(bin)
		if err != nil {
			return 0, err
		}
		fmt.Print(text)
		return 0, nil
	}

	aopts, flushTrace, err := o.observability()
	if err != nil {
		return 0, err
	}
	vopts, err := o.vocabulary()
	if err != nil {
		return 0, err
	}
	aopts = append(aopts, vopts...)
	aopts = append(aopts, analyzerOptions(o.module, o.workers, o.noAlias, o.noSSE, o.noSim, o.noVRange)...)
	if o.sumDir != "" {
		store, err := dtaint.NewSummaryStore(0, o.sumDir)
		if err != nil {
			return 0, err
		}
		aopts = append(aopts, dtaint.WithSummaryStore(store))
	}
	rep, err := dtaint.New(aopts...).AnalyzeExecutable(raw)
	if err != nil {
		return 0, err
	}
	if err := flushTrace(); err != nil {
		return 0, err
	}
	vulnPaths := len(rep.VulnerablePaths())

	if o.mdOut != "" {
		f, err := os.Create(o.mdOut)
		if err != nil {
			return 0, err
		}
		if err := rep.WriteMarkdown(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		fmt.Printf("wrote %s\n", o.mdOut)
		return vulnPaths, nil
	}
	if o.jsonOut {
		return vulnPaths, writeJSON(rep, o.showAll)
	}

	fmt.Printf("binary %s (%s): %d functions, %d blocks, %d call edges\n",
		rep.Binary, rep.Arch, rep.Functions, rep.Blocks, rep.CallEdges)
	fmt.Printf("analyzed %d functions, %d sink sites, %d indirect calls resolved\n",
		rep.FunctionsAnalyzed, rep.SinkCount, rep.IndirectResolved)
	fmt.Printf("symbolic analysis %v, data-flow generation %v (%d workers, %d components, critical path %d)\n\n",
		rep.SSATime, rep.DDGTime, rep.DDGWorkers, rep.SCCComponents, rep.CriticalPath)

	switch {
	case o.showAll:
		for _, f := range rep.Findings {
			fmt.Println(f)
		}
		fmt.Printf("\n%d findings (%d vulnerable paths, %d vulnerabilities)\n",
			len(rep.Findings), len(rep.VulnerablePaths()), len(rep.Vulnerabilities()))
	case o.paths:
		for _, f := range rep.VulnerablePaths() {
			fmt.Println(f)
		}
		fmt.Printf("\n%d vulnerable paths\n", len(rep.VulnerablePaths()))
	default:
		for _, f := range rep.Vulnerabilities() {
			fmt.Println(f)
		}
		fmt.Printf("\n%d vulnerabilities (%d paths)\n",
			len(rep.Vulnerabilities()), len(rep.VulnerablePaths()))
	}
	return vulnPaths, nil
}

// loadVocabulary reads and compiles the -vocab spec for the trace
// listing; an empty path returns nil, the embedded default.
func loadVocabulary(path string) (*taint.Vocabulary, error) {
	if path == "" {
		return nil, nil
	}
	spec, err := vocab.Load(path)
	if err != nil {
		return nil, err
	}
	return taint.CompileVocabulary(spec)
}

// runTrace writes the per-function static symbolic analysis listing —
// the same rendering as the paper's Figure 6, with evaluated symbolic
// expressions per executed statement — under vocabulary v (nil = the
// default).
func runTrace(w io.Writer, fwPath, exePath, binPath, fnName string, v *taint.Vocabulary) error {
	raw, err := loadExecutable(fwPath, exePath, binPath)
	if err != nil {
		return err
	}
	bin, err := image.Parse(raw)
	if err != nil {
		return err
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		return err
	}
	fn := prog.ByName[fnName]
	if fn == nil {
		return fmt.Errorf("function %q not found", fnName)
	}
	tracker := taint.NewTracker()
	tracker.SetVocabulary(v)
	tracker.BeginFunction(fnName)
	opts := symexec.Options{
		Prototypes: taint.PrototypesFor(v),
		Trace: func(addr uint32, line string) {
			fmt.Fprintf(w, "%06X: %s\n", addr, line)
		},
	}
	fmt.Fprintf(w, "; static symbolic analysis of %s (%s)\n", fnName, bin.Arch)
	sum := symexec.Analyze(fn, bin, tracker, opts)
	fmt.Fprintf(w, "; %d states over %d blocks; %d definition pairs, %d constraints\n",
		sum.StatesExplored, sum.BlocksAnalyzed, len(sum.DefPairs), len(sum.Constraints))
	return nil
}

// writeJSON prints the report in the schema dtaintd serves; sanitized
// findings are dropped unless -all asked for them.
func writeJSON(rep *dtaint.Report, includeSanitized bool) error {
	if !includeSanitized {
		vulnerable := *rep
		vulnerable.Findings = rep.VulnerablePaths()
		rep = &vulnerable
	}
	return printJSON(rep)
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func loadExecutable(fwPath, exePath, binPath string) ([]byte, error) {
	switch {
	case exePath != "":
		return os.ReadFile(exePath)
	case fwPath != "":
		data, err := os.ReadFile(fwPath)
		if err != nil {
			return nil, err
		}
		_, fs, err := firmware.Unpack(data)
		if err != nil {
			return nil, fmt.Errorf("unpack %s: %w", fwPath, err)
		}
		if binPath != "" {
			f, err := fs.Lookup(binPath)
			if err != nil {
				return nil, err
			}
			return f.Data, nil
		}
		for _, f := range fs.Files {
			if _, err := image.Parse(f.Data); err == nil {
				fmt.Fprintf(os.Stderr, "dtaint: auto-selected %s\n", f.Path)
				return f.Data, nil
			}
		}
		return nil, fmt.Errorf("no analyzable executable in %s (use -bin)", fwPath)
	default:
		return nil, fmt.Errorf("one of -fw or -exe is required")
	}
}
