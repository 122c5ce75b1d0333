package diff

import (
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/firmware"
	"dtaint/internal/image"
)

// pairPrograms builds the CFGs of the test spec's mutated binary in both
// versions.
func pairPrograms(t *testing.T) (*cfg.Program, *cfg.Program) {
	t.Helper()
	vp, err := corpus.BuildVersionPair(testSpec)
	if err != nil {
		t.Fatalf("BuildVersionPair: %v", err)
	}
	progOf := func(img []byte, path string) *cfg.Program {
		_, fs, err := firmware.Unpack(img)
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		for _, f := range fs.Files {
			if f.Path != path {
				continue
			}
			bin, err := image.Parse(f.Data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			prog, err := cfg.Build(bin)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			return prog
		}
		t.Fatalf("binary %s not found", path)
		return nil
	}
	path := vp.MutatedPaths[0]
	return progOf(vp.Old, path), progOf(vp.New, path)
}

func TestPairFunctionsExactAndRenamed(t *testing.T) {
	oldProg, newProg := pairPrograms(t)
	p := PairFunctions(oldProg, newProg, dataflow.Options{})

	// Every stable-module function pairs with itself.
	for _, fn := range oldProg.Funcs {
		name := fn.Name
		if len(name) < 4 || name[:4] != "b00s" && name[:4] != "b00p" {
			continue
		}
		if got := p.OldToNew[name]; got != name {
			t.Errorf("stable function %s paired with %q, want itself", name, got)
		}
	}
	// The renamed module pairs across the version-suffixed names.
	for _, pair := range [][2]string{
		{"b00r1_exec", "b00r2_exec"},
		{"b00r1_handler_0", "b00r2_handler_0"},
	} {
		if got := p.OldToNew[pair[0]]; got != pair[1] {
			t.Errorf("OldToNew[%s] = %q, want %s", pair[0], got, pair[1])
		}
	}
	if p.Renamed < 2 {
		t.Errorf("Renamed = %d, want >= 2", p.Renamed)
	}
	if p.Exact <= p.Renamed {
		t.Errorf("Exact = %d, Renamed = %d: stable module should pair exactly under its own name", p.Exact, p.Renamed)
	}
}

func TestFuncDigestRelocationInvariant(t *testing.T) {
	oldProg, newProg := pairPrograms(t)
	// The renamed helper sits at the same address with the same bytes in
	// both versions — its digest must match despite the different local
	// names around it.
	oldFn, newFn := oldProg.ByName["b00r1_exec"], newProg.ByName["b00r2_exec"]
	if oldFn == nil || newFn == nil {
		t.Fatal("renamed helpers missing")
	}
	if funcDigest(oldFn) != funcDigest(newFn) {
		t.Error("renamed helper digests differ")
	}
	// Different code must not collide.
	if funcDigest(oldProg.Funcs[0]) == funcDigest(oldProg.Funcs[len(oldProg.Funcs)-1]) {
		t.Error("distinct functions share a digest")
	}
}

func TestJaccardAndRatio(t *testing.T) {
	if got := jaccard(nil, nil); got != 1 {
		t.Errorf("jaccard(nil, nil) = %v, want 1", got)
	}
	if got := jaccard([]string{"a", "a", "b"}, []string{"a", "b", "b"}); got != 0.5 {
		t.Errorf("multiset jaccard = %v, want 0.5", got)
	}
	if got := ratio(0, 0); got != 1 {
		t.Errorf("ratio(0,0) = %v, want 1", got)
	}
	if got := ratio(8, 4); got != 0.5 {
		t.Errorf("ratio(8,4) = %v, want 0.5", got)
	}
}
