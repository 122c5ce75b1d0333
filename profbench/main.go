// Command profbench is the repository's performance benchmark: four
// workloads, each checked against ground truth, each reporting
// end-to-end metrics with tracing off and per-layer metrics from one
// traced pass. It is its own module so it can be built from a checkout
// without touching the scanner's build; run.sh builds and runs it.
//
// Workloads (why each exists; README.md has the inputs and call paths):
//
//	study   the six Table II images and the Table VII openssl binary, one
//	        binary at a time. Symexec and the bottom-up SCC-DAG pass do
//	        nearly all the work. Fixed inputs: the seed is unused.
//	screen  2000 tiny seeded binaries taken by nproc goroutines with one
//	        analysis worker each, as fleet does. Per-binary fixed costs and
//	        indirect-call resolution dominate; every verdict is checked.
//	replay  800 images of 16 variants rescanned against a summary store
//	        the set-up filled: unpack, dedup and store reads, and no
//	        symbolic execution, so a symexec gain must not move it.
//	diff    a 120-binary re-release diffed after an untimed prior scan:
//	        the re-analyzed binaries read their stable functions from the
//	        store and write the rest, and only this workload pairs
//	        functions.
//
// The metrics, their units, directions and bounds are the tables in
// metrics.go; BENCHMARK.json declares the same, and a test keeps the two
// in step. Units that error or disagree with ground truth count as
// failed; the run goes on and reports them in its failed count.
//
// Every time metric is scaled by host speed: right before and right after
// each set-up and each timed pass a fixed cache-resident kernel runs, and
// the time is reported as it would read on a host where that kernel takes
// a fixed reference time (hostspeed.go). Shared hosts drift by tens of percent
// over minutes; the scaling removes most of that drift, and the record
// keeps the raw times beside the scaled ones.
//
// Per-layer metrics come from one extra pass with an obs.Tracer and an
// obs.Registry threaded through the public dataflow.Options fields, so
// the harness's spans around each layer call and the stage spans the
// program already emits land in one trace. A layer's time is its self
// time. Symexec and alias are timed by a probe: the harness runs
// symexec.Analyze on every analyzed function of the workload's distinct
// binaries with a scratch tracker, as phase 1 does, then
// alias.RewriteSSE over the summaries. Counters marked exact repeat
// bit-for-bit for any seed-fixed input and worker count.
//
// Usage:
//
//	bash profbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
//	profbench -workload screen -seed 7 -trace 1 -trace-out screen.json
//	profbench -profile -seed 1 -out base.json          # all four, one child process each
//	profbench -compare BASE.json HEAD.json             # exit 1 on a regression
//
// A single-workload run ends its standard output with one JSON line:
// correct, attempted, failed, and the end-to-end medians (-trace 0) or
// the per-layer numbers (-trace 1). -record writes the same run as a
// dtaint-bench/v2 record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("profbench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload: "+workloadNames())
		seed         = uint64(1)
		seconds      = fs.Float64("seconds", 10, "how long the timed passes of one workload run")
		trace        = fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
		workers      = fs.Int("workers", runtime.NumCPU(), "load the harness generates; at most the CPU count")
		traceOut     = fs.String("trace-out", "", "write the traced pass as Chrome trace JSON (with -profile, one file per workload)")
		recordOut    = fs.String("record", "", "with -workload, also write the run as a dtaint-bench/v2 record")
		profile      = fs.Bool("profile", false, "run every workload, each in its own child process, and write one record")
		out          = fs.String("out", "", "with -profile, the record file (default profbench-<UTC time>.json)")
		compare      = fs.Bool("compare", false, "compare two records: -compare BASE.json HEAD.json")
	)
	fs.Func("seed", "seed of the screen, replay and diff input generators (any 64-bit integer; default 1)", func(s string) error {
		if u, err := strconv.ParseUint(s, 10, 64); err == nil {
			seed = u
			return nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		seed = uint64(i)
		return err
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *workers > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "profbench: -workers %d outside 1..%d (the CPU count)\n", *workers, runtime.NumCPU())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "profbench: -trace takes 0 or 1")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "profbench: -compare takes BASE.json HEAD.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	case *profile:
		err = runProfile(seed, *seconds, *workers, *traceOut, *out)
	case *workloadName != "":
		err = runOne(config{workload: *workloadName, seed: seed, seconds: *seconds, workers: *workers,
			trace: *trace == 1, traceOut: *traceOut, size: fullSize}, *recordOut)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "profbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOne runs one workload in this process and ends standard output with
// the summary line.
func runOne(cfg config, recordOut string) error {
	w, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printWorkload(os.Stdout, w)
	if recordOut != "" {
		rec := newRecord(cfg.seed, cfg.seconds)
		rec.Workloads = append(rec.Workloads, w)
		if err := rec.writeFile(recordOut); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summaryLine(w, cfg.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runProfile runs every workload, one at a time, each in a fresh child
// process so each has its own peak RSS and GC state, and merges their
// records into one.
func runProfile(seed uint64, seconds float64, workers int, traceOut, out string) error {
	if out == "" {
		// Not BENCH_*.json: that name belongs to cmd/benchtab's v1 records.
		out = "profbench-" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := newRecord(seed, seconds)
	for _, w := range workloads {
		tmp, err := os.CreateTemp(filepath.Dir(out), ".profbench-*.json")
		if err != nil {
			return err
		}
		tmp.Close()
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-workers", strconv.Itoa(workers),
			"-trace", "1", "-record", tmp.Name()}
		if traceOut != "" {
			ext := filepath.Ext(traceOut)
			args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ext)+"."+w.name+ext)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		err = cmd.Run()
		var child *record
		if err == nil {
			child, err = readRecord(tmp.Name())
		}
		os.Remove(tmp.Name())
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		rec.Workloads = append(rec.Workloads, child.Workloads...)
	}
	for _, w := range rec.Workloads {
		printWorkload(os.Stdout, w)
	}
	if err := rec.writeFile(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "profbench: wrote %s\n", out)
	return nil
}

func runCompare(basePath, headPath string) int {
	base, err := readRecord(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profbench:", err)
		return 2
	}
	head, err := readRecord(headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profbench:", err)
		return 2
	}
	if !compareRecords(os.Stdout, base, head) {
		fmt.Fprintln(os.Stderr, "profbench: head regresses against base (rows marked !)")
		return 1
	}
	return 0
}
