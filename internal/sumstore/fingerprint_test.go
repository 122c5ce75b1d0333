package sumstore

import (
	"slices"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
)

// CompKeys given some components keys exactly those and the components
// they depend on, each as the full keying does.
func TestCompKeysOfSomeComponents(t *testing.T) {
	spec, _ := corpus.SpecByProduct("DIR-645")
	bin, _, err := corpus.BuildBinary(spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fn := range prog.Funcs {
		names = append(names, fn.Name)
	}
	cond := prog.Condense(names)
	fp := NewFingerprinter(prog, "test")
	all := fp.CompKeys(cond)
	for _, need := range [][]int{{0}, {len(cond.Comps) - 1}, {len(cond.Comps) / 2, 1}} {
		asked := slices.Clone(need)
		some := fp.CompKeys(cond, need...)
		if !slices.Equal(need, asked) {
			t.Fatalf("CompKeys changed its argument %v to %v", asked, need)
		}
		keyed := 0
		for i, k := range some {
			if k != "" {
				keyed++
				if k != all[i] {
					t.Fatalf("need %v: component %d keyed %s, full keying %s", need, i, k, all[i])
				}
			}
		}
		for _, i := range need {
			if some[i] == "" {
				t.Fatalf("need %v: component %d not keyed", need, i)
			}
		}
		// Component 0 depends on nothing: it is keyed alone.
		if need[0] == 0 && keyed != 1 {
			t.Fatalf("need %v: %d of %d components keyed, want 1", need, keyed, len(all))
		}
	}
}
