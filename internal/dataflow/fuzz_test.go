package dataflow

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/image"
	"dtaint/internal/structsim"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
)

// FuzzAnalyzeBinary drives arbitrary FWELF bytes through the whole
// per-binary analysis: image.Parse, cfg.Build, then both analysis phases
// under small budgets, so the decoded registers, offsets and targets of
// any parseable binary reach symbolic execution. It must never panic,
// and the result must not depend on the schedule, the summary store or
// earlier analyses of the same program: all four runs analyze one
// cfg.Build result, and 4 workers, a fresh store and the same store
// warm must each give the fingerprint, the summary digests and the
// phase-2 resolutions and counts of the 1-worker store-less run. Phase
// 1 runs only on the functions resolution can read, so those
// resolutions must also be the ones a phase 1 over every function
// gives. One symexec.Engine also analyzes every function in reverse name
// order, and each summary must equal a fresh engine's
// (checkEngineReuse), so the engine's reused scratch is fuzzed on
// arbitrary CFGs and under budgets that truncate. The seeds are
// screening binaries, small enough to keep the
// fuzzer fast, and the arithPtrShapes programs, whose registrations
// only a fold, a reload or a join of constants reveals.
func FuzzAnalyzeBinary(f *testing.F) {
	cases, err := corpus.ScreeningCorpus(8, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cases {
		raw, err := c.Binary.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, arch := range []string{"arm", "mips"} {
		for _, shape := range arithPtrShapes {
			raw, err := arithPtrBinary(f, arch, shape.body).Marshal()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	opts := Options{
		Symexec: symexec.Options{
			LoopOnce:          true,
			MaxStatesPerBlock: 2,
			MaxStatesPerFunc:  64,
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bin, err := image.Parse(data)
		if err != nil {
			return
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			return
		}
		checkEngineReuse(t, prog, opts, reverseNames(prog))
		analyze := func(workers int, store *sumstore.Store) string {
			o := opts
			o.Parallelism, o.SummaryStore = workers, store
			res, err := Analyze(prog, o)
			if err != nil {
				return "error: " + err.Error() // an error is an answer; a panic is a bug
			}
			return fingerprint(res) + summaryDigests(res) +
				fmt.Sprintf("resolutions %+v %+v\n", res.Resolutions, res.Resolve)
		}
		want := analyze(1, nil)
		if res, err := Analyze(prog, opts); err == nil {
			all, allStats := allPhase1Resolutions(prog, opts)
			if !reflect.DeepEqual(res.Resolutions, all) || res.Resolve != allStats {
				t.Fatalf("resolutions %+v %+v, from a phase 1 over every function %+v %+v",
					res.Resolutions, res.Resolve, all, allStats)
			}
		}
		store, err := sumstore.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name    string
			workers int
			store   *sumstore.Store
		}{{"4 workers", 4, nil}, {"store cold", 1, store}, {"store warm", 1, store}} {
			if got := analyze(run.workers, run.store); got != want {
				t.Fatalf("%s: result diverges from 1 worker without a store:\n--- got ---\n%s--- want ---\n%s", run.name, got, want)
			}
		}
	})
}

// allPhase1Resolutions resolves prog's indirect calls as Analyze does,
// but from phase-1 summaries of every function the filter keeps.
func allPhase1Resolutions(prog *cfg.Program, opts Options) ([]structsim.Resolution, ResolveStats) {
	opts = opts.withVocab().withTable()
	sums, _ := runPhase1(prog, filteredNames(prog, opts.Filter), opts, nil, nil)
	switch {
	case opts.DisableStructSim:
		return nil, ResolveStats{}
	case opts.DisableSSE:
		return structsim.ResolveIndirect(sums), ResolveStats{}
	}
	return resolveIndirectSSE(sums, opts.Symexec.Table)
}

// summaryDigests lists a SHA-256 of the wire encoding of every summary
// in res, in function-name order.
func summaryDigests(res *Result) string {
	names := make([]string, 0, len(res.Summaries))
	for name := range res.Summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		out += fmt.Sprintf("S %s %x\n", name, sha256.Sum256(sumstore.EncodeSummary(res.Summaries[name])))
	}
	return out
}
