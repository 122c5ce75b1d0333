package cfg_test

import (
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/image"
	"dtaint/internal/isa"
)

// TestBlocksPartitionFunctions checks the structural CFG invariants over
// the study images, DS-2CD6233F's indirect callsite among them, so the
// callsite order is also checked on a view that binds one.
func TestBlocksPartitionFunctions(t *testing.T) {
	bound := 0
	for _, spec := range corpus.StudyImages() {
		bin, _, err := corpus.BuildBinary(spec, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		bound += checkPartition(t, prog)
	}
	if bound == 0 {
		t.Fatal("no study image has an indirect callsite to bind")
	}
}

// FuzzBuild feeds arbitrary FWELF bytes through image.Parse and cfg.Build:
// Build must never panic, and every program it accepts must satisfy the
// partition invariants.
func FuzzBuild(f *testing.F) {
	bin, _, err := corpus.BuildBinary(corpus.StudyImages()[0], 0.01)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []*image.Binary{bin, cfg.UnalignedBranchBinary(f)} {
		raw, err := b.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
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
		checkPartition(t, prog)
	})
}

// checkPartition checks that blocks tile each function exactly, that
// every successor edge targets a block leader inside the same function,
// and that call records point at call instructions, in strictly
// increasing address order. The order must hold as well in a view that
// binds every indirect callsite; checkPartition returns how many it
// bound.
func checkPartition(t testing.TB, prog *cfg.Program) int {
	t.Helper()
	for _, fn := range prog.Funcs {
		covered := uint32(0)
		next := fn.Addr
		for _, b := range fn.Blocks {
			if b.Start != next {
				t.Fatalf("%s: block at %#x, expected %#x (gap or overlap)",
					fn.Name, b.Start, next)
			}
			next = b.End()
			covered += b.End() - b.Start
			for _, s := range b.Succs {
				if _, ok := fn.BlockAt(s.Start); !ok {
					t.Fatalf("%s: successor %#x is not a block leader", fn.Name, s.Start)
				}
				if s.Start < fn.Addr || s.Start >= fn.Addr+fn.Size {
					t.Fatalf("%s: successor %#x escapes the function", fn.Name, s.Start)
				}
			}
		}
		if covered != fn.Size {
			t.Fatalf("%s: blocks cover %d of %d bytes", fn.Name, covered, fn.Size)
		}
		for _, cs := range fn.Calls {
			blk, ok := fn.BlockAt(cs.Block.Start)
			if !ok || blk != cs.Block {
				t.Fatalf("%s: callsite block mismatch at %#x", fn.Name, cs.Addr)
			}
			found := false
			for _, in := range cs.Block.Insts {
				if in.Addr == cs.Addr && (in.Raw.Op == isa.OpBL || in.Raw.Op == isa.OpBLX) {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: callsite %#x is not a call instruction", fn.Name, cs.Addr)
			}
		}
	}
	checkCallOrder(t, prog)
	var edges []cfg.CallEdge
	for _, fn := range prog.Funcs {
		for _, cs := range fn.Calls {
			if cs.Kind == cfg.CallIndirect {
				edges = append(edges, cfg.CallEdge{Caller: fn.Name, Site: cs.Addr, Callee: prog.Funcs[0].Name})
			}
		}
	}
	checkCallOrder(t, prog.WithCallEdges(edges))
	return len(edges)
}

// checkCallOrder checks that every function's callsites are strictly
// increasing by address, the order the engine's callsite lookup needs.
func checkCallOrder(t testing.TB, prog *cfg.Program) {
	t.Helper()
	for _, fn := range prog.Funcs {
		for i := 1; i < len(fn.Calls); i++ {
			if fn.Calls[i].Addr <= fn.Calls[i-1].Addr {
				t.Fatalf("%s: callsite %#x follows %#x", fn.Name, fn.Calls[i].Addr, fn.Calls[i-1].Addr)
			}
		}
	}
}

// TestStudyStats pins the Table II counts (functions, blocks, call-graph
// edges) of the six study images and openssl at scale 0.05, so a change
// to the block partition or callsite recovery cannot move them unnoticed.
func TestStudyStats(t *testing.T) {
	want := map[string]cfg.Stats{
		"DIR-645":     {Functions: 17, Blocks: 77, CallGraphEdges: 44},
		"DIR-890L":    {Functions: 17, Blocks: 105, CallGraphEdges: 49},
		"DGN1000":     {Functions: 36, Blocks: 94, CallGraphEdges: 81},
		"DGN2200":     {Functions: 39, Blocks: 327, CallGraphEdges: 156},
		"IPC_6201":    {Functions: 335, Blocks: 4823, CallGraphEdges: 1587},
		"DS-2CD6233F": {Functions: 704, Blocks: 10484, CallGraphEdges: 3346},
		"openssl":     {Functions: 24, Blocks: 254, CallGraphEdges: 88},
	}
	bins := map[string]*image.Binary{}
	for _, spec := range corpus.StudyImages() {
		bin, _, err := corpus.BuildBinary(spec, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		bins[spec.Product] = bin
	}
	bin, err := corpus.OpenSSL(0.05)
	if err != nil {
		t.Fatal(err)
	}
	bins["openssl"] = bin
	if len(bins) != len(want) {
		t.Fatalf("built %d binaries, want %d", len(bins), len(want))
	}
	for name, bin := range bins {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Stats(); got != want[name] {
			t.Errorf("%s: stats = %+v, want %+v", name, got, want[name])
		}
	}
}

// TestCallGraphConsistency checks Callees/Callers are inverse relations.
func TestCallGraphConsistency(t *testing.T) {
	spec := corpus.StudyImages()[1]
	bin, _, err := corpus.BuildBinary(spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	for caller, callees := range prog.Callees {
		for _, callee := range callees {
			found := false
			for _, c := range prog.Callers[callee] {
				if c == caller {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %s->%s missing from Callers", caller, callee)
			}
		}
	}
	// SCC covers every function exactly once.
	names := make([]string, 0, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		names = append(names, fn.Name)
	}
	seen := map[string]int{}
	for _, comp := range prog.SCC(names) {
		for _, n := range comp {
			seen[n]++
		}
	}
	if len(seen) != len(names) {
		t.Fatalf("SCC covered %d of %d functions", len(seen), len(names))
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("function %s in %d components", n, c)
		}
	}
}
