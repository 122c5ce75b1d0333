package cfg

import (
	"errors"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/image"
	"dtaint/internal/isa"
)

func mustAssemble(t *testing.T, src string) *image.Binary {
	t.Helper()
	b, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLinearFunction(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func f
  MOV R0, #1
  ADD R0, R0, #2
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.ByName["f"]
	if fn == nil || len(fn.Blocks) != 1 {
		t.Fatalf("blocks = %+v", fn)
	}
	if len(fn.Entry.Insts) != 3 {
		t.Fatalf("entry has %d insts", len(fn.Entry.Insts))
	}
	if len(fn.Entry.Succs) != 0 {
		t.Fatal("return block must have no successors")
	}
}

func TestDiamondCFG(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func f
  CMP R0, #64
  BGE big
  MOV R1, #1
  B join
big:
  MOV R1, #2
join:
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.ByName["f"]
	if len(fn.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(fn.Blocks))
	}
	entry := fn.Entry
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d (taken + fallthrough)", len(entry.Succs))
	}
	// Taken edge first.
	if entry.Succs[0].Start <= entry.Succs[1].Start {
		t.Fatal("taken edge (big) should be the later block")
	}
	if len(fn.LoopBlocks) != 0 {
		t.Fatal("diamond has no loops")
	}
}

func TestLoopDetection(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func f
  MOV R2, #0
loop:
  LDRB R3, [R1, #0]
  STRB R3, [R0, #0]
  ADD R0, R0, #1
  ADD R1, R1, #1
  ADD R2, R2, #1
  CMP R2, #16
  BLT loop
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.ByName["f"]
	if len(fn.BackEdges) != 1 {
		t.Fatalf("back edges = %v", fn.BackEdges)
	}
	if len(fn.LoopBlocks) == 0 {
		t.Fatal("loop blocks not marked")
	}
	// The loop body block must be marked, the entry must not.
	loopB, ok := fn.BlockAt(fn.Addr + 1*8)
	if !ok {
		t.Fatal("loop block not found")
	}
	if !fn.LoopBlocks[loopB.Index] {
		t.Fatal("loop body not in LoopBlocks")
	}
	if fn.LoopBlocks[fn.Entry.Index] {
		t.Fatal("entry wrongly marked as loop")
	}
}

func TestCallsitesAndCallGraph(t *testing.T) {
	b := mustAssemble(t, `
.arch mips
.import recv
.func top
  BL mid
  BL recv
  BLX R9
  BX LR
.endfunc
.func mid
  BL leaf
  BX LR
.endfunc
.func leaf
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	top := p.ByName["top"]
	if len(top.Calls) != 3 {
		t.Fatalf("top calls = %+v", top.Calls)
	}
	kinds := map[CallKind]int{}
	for _, c := range top.Calls {
		kinds[c.Kind]++
	}
	if kinds[CallLocal] != 1 || kinds[CallImport] != 1 || kinds[CallIndirect] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	if got := p.Callees["top"]; len(got) != 1 || got[0] != "mid" {
		t.Fatalf("callees(top) = %v", got)
	}
	if got := p.Callers["leaf"]; len(got) != 1 || got[0] != "mid" {
		t.Fatalf("callers(leaf) = %v", got)
	}
	st := p.Stats()
	if st.Functions != 3 || st.CallGraphEdges != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSCCBottomUpOrder(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func a
  BL b
  BX LR
.endfunc
.func b
  BL c
  BX LR
.endfunc
.func c
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	comps := p.SCC([]string{"a", "b", "c"})
	if len(comps) != 3 {
		t.Fatalf("comps = %v", comps)
	}
	// Bottom-up: callees before callers.
	order := map[string]int{}
	for i, comp := range comps {
		for _, n := range comp {
			order[n] = i
		}
	}
	if !(order["c"] < order["b"] && order["b"] < order["a"]) {
		t.Fatalf("not bottom-up: %v", comps)
	}
}

func TestSCCRecursion(t *testing.T) {
	// Mutually recursive pair must land in one component; the paper's
	// "analyze each function once" has to survive call-graph cycles.
	b := mustAssemble(t, `
.arch arm
.func even
  BL odd
  BX LR
.endfunc
.func odd
  BL even
  BX LR
.endfunc
.func user
  BL even
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	comps := p.SCC([]string{"even", "odd", "user"})
	if len(comps) != 2 {
		t.Fatalf("comps = %v", comps)
	}
	if len(comps[0]) != 2 {
		t.Fatalf("first component should be the cycle: %v", comps)
	}
	if comps[1][0] != "user" {
		t.Fatalf("user must come last: %v", comps)
	}
}

func TestSCCSubset(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func a
  BL b
  BX LR
.endfunc
.func b
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	comps := p.SCC([]string{"a"})
	if len(comps) != 1 || comps[0][0] != "a" {
		t.Fatalf("subset SCC = %v", comps)
	}
}

func TestAddCallEdge(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func dispatch
  LDR R9, [R0, #8]
  BLX R9
  BX LR
.endfunc
.func handler
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	site := p.ByName["dispatch"].Calls[0].Addr
	p.AddCallEdge("dispatch", site, "handler")
	if got := p.Callees["dispatch"]; len(got) != 1 || got[0] != "handler" {
		t.Fatalf("callees = %v", got)
	}
	cs := p.ByName["dispatch"].Calls[0]
	if cs.Callee != "handler" || cs.Target != p.ByName["handler"].Addr {
		t.Fatalf("callsite not updated: %+v", cs)
	}
	// Duplicate insert must not duplicate the edge.
	p.AddCallEdge("dispatch", site, "handler")
	if got := p.Callees["dispatch"]; len(got) != 1 {
		t.Fatalf("duplicate edge: %v", got)
	}
	// Unknown names are ignored.
	p.AddCallEdge("ghost", 0, "handler")
	p.AddCallEdge("dispatch", 0, "ghost")
}

func TestBadBranchTarget(t *testing.T) {
	// Hand-craft a binary with a branch escaping the function.
	in := isa.Inst{Op: isa.OpB, Target: 0x9999_0000}
	enc, err := isa.Encode(isa.ArchARM, in)
	if err != nil {
		t.Fatal(err)
	}
	bin := &image.Binary{
		Name: "bad", Arch: isa.ArchARM, TextBase: 0x10000,
		Text:  enc[:],
		Funcs: []image.Symbol{{Name: "f", Addr: 0x10000, Size: 8}},
	}
	if _, err := Build(bin); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("want ErrBadTarget, got %v", err)
	}
}

// UnalignedBranchBinary returns a one-function ARM binary whose B at
// 0x10008 targets 0x1000c, inside the function but between two
// instructions.
func UnalignedBranchBinary(t testing.TB) *image.Binary {
	t.Helper()
	var text []byte
	for _, in := range []isa.Inst{
		{Op: isa.OpNOP},
		{Op: isa.OpB, Target: 0x1000c},
		{Op: isa.OpBX, Rm: isa.LR},
	} {
		enc, err := isa.Encode(isa.ArchARM, in)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, enc[:]...)
	}
	return &image.Binary{
		Name: "unaligned", Arch: isa.ArchARM, TextBase: 0x10000,
		Text:  text,
		Funcs: []image.Symbol{{Name: "f", Addr: 0x10000, Size: uint32(len(text))}},
	}
}

// A branch target between two instructions starts no block; Build must
// reject it as it rejects an out-of-range target.
func TestUnalignedBranchTarget(t *testing.T) {
	if _, err := Build(UnalignedBranchBinary(t)); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("want ErrBadTarget, got %v", err)
	}
}

func TestNoFunctions(t *testing.T) {
	bin := &image.Binary{Name: "empty", Arch: isa.ArchARM, TextBase: 0x10000}
	if _, err := Build(bin); !errors.Is(err, ErrNoFunctions) {
		t.Fatalf("want ErrNoFunctions, got %v", err)
	}
}

func TestBlockAt(t *testing.T) {
	b := mustAssemble(t, `
.arch arm
.func f
  B next
next:
  BX LR
.endfunc
`)
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.ByName["f"]
	if blk, ok := fn.BlockAt(fn.Addr + 8); !ok || blk.Start != fn.Addr+8 {
		t.Fatalf("BlockAt: %+v %v", blk, ok)
	}
	if _, ok := fn.BlockAt(fn.Addr + 4); ok {
		t.Fatal("BlockAt matched a non-leader")
	}
	if fn.Blocks[0].End() != fn.Addr+8 {
		t.Fatalf("End = %#x", fn.Blocks[0].End())
	}
}
