package dataflow

import (
	"reflect"
	"sort"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
)

// TestEngineReuseMatchesFresh: one symexec.Engine analyzes every
// function of DS-2CD6233F and of a screening seed, under default options
// and under ForResolution, largest function first and then in reverse
// name order. Each summary, Constraints included, must deep-equal what a
// fresh symexec.Analyze returns through the same table, so no scratch
// the engine keeps (dedup sets, path states, the work stack, the call
// context, the constraint buffer) leaks from one function into the next.
func TestEngineReuseMatchesFresh(t *testing.T) {
	spec, ok := corpus.SpecByProduct("DS-2CD6233F")
	if !ok {
		t.Fatal("no DS-2CD6233F spec")
	}
	bin, _, err := corpus.BuildBinary(spec, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	bins := []*image.Binary{bin}
	cases, err := corpus.ScreeningCorpus(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		bins = append(bins, c.Binary)
	}
	opts := Options{Symexec: symexec.Options{LoopOnce: true}}
	constraints := 0
	for _, bin := range bins {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		largest := reverseNames(prog)
		sort.SliceStable(largest, func(i, j int) bool {
			return prog.ByName[largest[i]].Size > prog.ByName[largest[j]].Size
		})
		constraints += checkEngineReuse(t, prog, opts, largest, reverseNames(prog))
	}
	// Reused constraint buffers are only tested if functions record some.
	if constraints < 1000 {
		t.Fatalf("only %d constraints compared", constraints)
	}
}

// reverseNames returns prog's function names in reverse order.
func reverseNames(prog *cfg.Program) []string {
	names := filteredNames(prog, nil)
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// checkEngineReuse runs one symexec.Engine over the functions of each
// order in turn, under opts.Symexec and under its ForResolution, and
// requires every summary to deep-equal a fresh symexec.Analyze of the
// function through the same table and tracker. A summary is compared
// before the engine's next call, since its Constraints live in the
// engine's buffer. It returns how many constraints it compared.
func checkEngineReuse(t testing.TB, prog *cfg.Program, opts Options, orders ...[]string) int {
	t.Helper()
	opts = opts.withVocab().withTable()
	n := 0
	for _, so := range []symexec.Options{opts.Symexec, opts.Symexec.ForResolution()} {
		eng := new(symexec.Engine)
		tr := newTracker(opts, prog.Binary)
		for _, order := range orders {
			for _, name := range order {
				fn := prog.ByName[name]
				tr.BeginFunction(name)
				got := eng.Analyze(fn, prog.Binary, tr, so)
				tr.BeginFunction(name)
				want := symexec.Analyze(fn, prog.Binary, tr, so)
				g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
				for i := 0; i < g.NumField(); i++ {
					if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
						t.Fatalf("%s: reused engine's %s\n%v\nfresh engine's\n%v",
							name, g.Type().Field(i).Name, g.Field(i), w.Field(i))
					}
				}
				n += len(got.Constraints)
			}
		}
	}
	return n
}
