package dataflow

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/sumstore"
)

// programShape is a deep copy of everything an analysis could rebind in
// a program: the function set and every function's callsites, callees
// and callers.
type programShape struct {
	funcs            []*cfg.Function
	calls            map[string][]cfg.CallSite
	callees, callers map[string][]string
}

func shapeOf(p *cfg.Program) programShape {
	s := programShape{
		funcs:   append([]*cfg.Function(nil), p.Funcs...),
		calls:   make(map[string][]cfg.CallSite, len(p.Funcs)),
		callees: make(map[string][]string, len(p.Funcs)),
		callers: make(map[string][]string, len(p.Funcs)),
	}
	for _, fn := range p.Funcs {
		s.calls[fn.Name] = append([]cfg.CallSite(nil), p.ByName[fn.Name].Calls...)
		s.callees[fn.Name] = append([]string(nil), p.Callees[fn.Name]...)
		s.callers[fn.Name] = append([]string(nil), p.Callers[fn.Name]...)
	}
	return s
}

// storeKeys lists the keys a disk-backed store directory holds.
func storeKeys(t *testing.T, dir string) []string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(files))
	for i, f := range files {
		keys[i] = f.Name()
	}
	return keys
}

// TestAnalyzeLeavesProgramUnchanged checks that findings depend on the
// binary and the options, not on what earlier analyses did with the
// same cfg.Program: Analyze binds the indirect calls it resolves in a
// view and never writes into its input. Over the golden units and
// screening programs with resolved dispatches, the program's callsites
// and call graph must equal a snapshot taken before analysis; a second
// pass through one disk store must replay every unit, under the keys a
// freshly built program stores; and two concurrent analyses of one
// program must agree (the race detector guards the sharing).
func TestAnalyzeLeavesProgramUnchanged(t *testing.T) {
	units := goldenUnits(t)
	cases, err := corpus.ScreeningCorpus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, goldenUnit{name: c.Name, prog: prog})
	}
	diskStore := func(dir string) *sumstore.Store {
		store, err := sumstore.NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	resolved := 0
	for _, u := range units {
		opts := goldenModes[0].opts
		opts.Filter = u.filter
		opts.Parallelism = 2
		before := shapeOf(u.prog)

		dir := t.TempDir()
		for pass := 1; pass <= 2; pass++ {
			opts.SummaryStore = diskStore(dir)
			res, err := Analyze(u.prog, opts)
			if err != nil {
				t.Fatalf("%s: %v", u.name, err)
			}
			if !reflect.DeepEqual(shapeOf(u.prog), before) {
				t.Fatalf("%s: program changed", u.name)
			}
			if pass == 1 {
				resolved += len(res.Resolutions)
			} else if res.SumStore.Misses != 0 {
				t.Fatalf("%s: second pass through one store: %d misses, %d hits",
					u.name, res.SumStore.Misses, res.SumStore.Hits)
			}
		}
		fresh, err := cfg.Build(u.prog.Binary)
		if err != nil {
			t.Fatal(err)
		}
		freshDir := t.TempDir()
		opts.SummaryStore = diskStore(freshDir)
		if _, err := Analyze(fresh, opts); err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		if got, want := storeKeys(t, dir), storeKeys(t, freshDir); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused program stored %d keys, a fresh one %d, and they differ", u.name, len(got), len(want))
		}

		opts.SummaryStore = nil
		var fps [2]string
		var wg sync.WaitGroup
		for i := range fps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Analyze(u.prog, opts)
				if err != nil {
					fps[i] = "error: " + err.Error()
					return
				}
				fps[i] = fingerprint(res)
			}()
		}
		wg.Wait()
		if fps[0] != fps[1] {
			t.Fatalf("%s: concurrent analyses of one program disagree:\n%s\n---\n%s", u.name, fps[0], fps[1])
		}
	}
	if resolved == 0 {
		t.Fatal("no unit resolved an indirect call: nothing was bound")
	}
}
