// Package cfg recovers control-flow graphs, the call graph, and natural
// loops from FWELF binaries (Section III-B: "DTaint first creates a
// control flow graph for the firmware ... for each function separately.
// The node in a CFG represents a basic block").
package cfg

import (
	"errors"
	"fmt"
	"sort"

	"dtaint/internal/image"
	"dtaint/internal/isa"
)

// Inst pairs a decoded machine instruction with its address.
type Inst struct {
	Addr uint32
	Raw  isa.Inst
}

// Block is a basic block.
type Block struct {
	Start uint32
	Insts []Inst
	// Succs are the intra-procedural successors in deterministic order:
	// for a conditional branch, the taken edge first, then fallthrough.
	Succs []*Block
	// Index is the block's position in Function.Blocks.
	Index int
}

// End returns the address one past the block's last instruction.
func (b *Block) End() uint32 {
	if len(b.Insts) == 0 {
		return b.Start
	}
	return b.Insts[len(b.Insts)-1].Addr + isa.InstSize
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() (Inst, bool) {
	if len(b.Insts) == 0 {
		return Inst{}, false
	}
	return b.Insts[len(b.Insts)-1], true
}

// CallKind classifies a callsite target.
type CallKind int

// Callsite target kinds.
const (
	CallLocal CallKind = iota + 1 // another function in the binary
	CallImport
	CallIndirect
	CallUnknown // direct target that resolves to nothing
)

// CallSite is a static call instruction inside a function.
type CallSite struct {
	Addr   uint32
	Kind   CallKind
	Callee string  // function or import name (local/import)
	Target uint32  // direct target address
	Reg    isa.Reg // register holding the target (indirect)
	Block  *Block
}

// Function is a recovered function CFG.
type Function struct {
	Name   string
	Addr   uint32
	Size   uint32
	Entry  *Block
	Blocks []*Block // in address order
	Calls  []CallSite
	// LoopBlocks marks block indices that belong to at least one natural
	// loop (used by the loop-copy sink detector and the loop-once
	// heuristic diagnostics).
	LoopBlocks map[int]bool
	// BackEdges lists (from, to) block-index pairs of loop back edges.
	BackEdges [][2]int
}

// BlockAt returns the block starting at addr.
func (f *Function) BlockAt(addr uint32) (*Block, bool) {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Start >= addr })
	if i < len(f.Blocks) && f.Blocks[i].Start == addr {
		return f.Blocks[i], true
	}
	return nil, false
}

// Program is the whole-binary analysis unit: all function CFGs plus the
// call graph.
type Program struct {
	Binary *image.Binary
	// Funcs in address order.
	Funcs []*Function
	// ByName indexes Funcs.
	ByName map[string]*Function
	// Callees maps a function name to the local functions it calls
	// directly (deduplicated, sorted).
	Callees map[string][]string
	// Callers is the inverse of Callees.
	Callers map[string][]string
}

// Errors returned by Build.
var (
	ErrNoFunctions = errors.New("cfg: binary has no function symbols")
	ErrBadTarget   = errors.New("cfg: branch target outside function or unaligned")
)

// Build decodes every function of the binary and partitions it into basic
// blocks. The blocks hold the decoded instructions that symbolic execution
// interprets.
func Build(bin *image.Binary) (*Program, error) {
	if len(bin.Funcs) == 0 {
		return nil, ErrNoFunctions
	}
	p := &Program{
		Binary:  bin,
		ByName:  make(map[string]*Function, len(bin.Funcs)),
		Callees: make(map[string][]string),
		Callers: make(map[string][]string),
	}
	for _, sym := range bin.Funcs {
		fn, err := buildFunction(bin, sym)
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", sym.Name, err)
		}
		p.Funcs = append(p.Funcs, fn)
		p.ByName[fn.Name] = fn
	}
	sort.Slice(p.Funcs, func(i, j int) bool { return p.Funcs[i].Addr < p.Funcs[j].Addr })
	p.buildCallGraph()
	return p, nil
}

func buildFunction(bin *image.Binary, sym image.Symbol) (*Function, error) {
	code, err := bin.FuncCode(sym)
	if err != nil {
		return nil, err
	}
	if len(code)%isa.InstSize != 0 {
		return nil, isa.ErrShortCode
	}
	insts := make([]Inst, len(code)/isa.InstSize)
	for i := range insts {
		addr := sym.Addr + uint32(i)*isa.InstSize
		raw, err := isa.Decode(bin.Arch, code[i*isa.InstSize:(i+1)*isa.InstSize])
		if err != nil {
			return nil, fmt.Errorf("at %#x: %w", addr, err)
		}
		insts[i] = Inst{Addr: addr, Raw: raw}
	}

	fn := &Function{Name: sym.Name, Addr: sym.Addr, Size: sym.Size}
	if len(insts) == 0 {
		entry := &Block{Start: sym.Addr}
		fn.Entry = entry
		fn.Blocks = []*Block{entry}
		fn.LoopBlocks = map[int]bool{}
		return fn, nil
	}

	// Block leaders: function entry, branch targets inside the function,
	// and instructions following terminators or conditional branches.
	n := len(insts)
	leader := make([]bool, n)
	leader[0] = true
	blocks, calls := 1, 0
	mark := func(i int) {
		if i < n && !leader[i] {
			leader[i] = true
			blocks++
		}
	}
	for i, in := range insts {
		switch in.Raw.Op {
		case isa.OpB:
			off := in.Raw.Target - sym.Addr // wraps for targets below the entry
			if off >= uint32(n)*isa.InstSize || off%isa.InstSize != 0 {
				return nil, fmt.Errorf("%w: %#x -> %#x", ErrBadTarget, in.Addr, in.Raw.Target)
			}
			mark(int(off / isa.InstSize))
			mark(i + 1)
		case isa.OpBX:
			mark(i + 1)
		case isa.OpBL, isa.OpBLX:
			calls++
		}
	}
	if calls > 0 {
		fn.Calls = make([]CallSite, 0, calls)
	}

	// Materialize blocks in address order from one slab; blockOf maps an
	// instruction index to the index of the block holding it.
	slab := make([]Block, blocks)
	fn.Blocks = make([]*Block, blocks)
	blockOf := make([]int32, n)
	bi, lo := -1, 0
	for i := range insts {
		if leader[i] {
			if i > 0 {
				slab[bi].Insts = insts[lo:i]
			}
			bi, lo = bi+1, i
			slab[bi] = Block{Start: insts[i].Addr, Index: bi}
			fn.Blocks[bi] = &slab[bi]
		}
		blockOf[i] = int32(bi)
	}
	slab[bi].Insts = insts[lo:]
	fn.Entry = fn.Blocks[0]

	// Edges and callsites.
	for i, b := range fn.Blocks {
		for _, in := range b.Insts {
			switch in.Raw.Op {
			case isa.OpBL:
				cs := CallSite{Addr: in.Addr, Target: in.Raw.Target, Block: b}
				if tgt, ok := bin.FuncAt(in.Raw.Target); ok {
					cs.Kind = CallLocal
					cs.Callee = tgt.Name
				} else if imp, ok := bin.ImportAt(in.Raw.Target); ok {
					cs.Kind = CallImport
					cs.Callee = imp.Name
				} else {
					cs.Kind = CallUnknown
				}
				fn.Calls = append(fn.Calls, cs)
			case isa.OpBLX:
				fn.Calls = append(fn.Calls, CallSite{
					Addr: in.Addr, Kind: CallIndirect, Reg: in.Raw.Rm, Block: b,
				})
			}
		}
		term, _ := b.Terminator()
		switch term.Raw.Op {
		case isa.OpB:
			tgt := fn.Blocks[blockOf[(term.Raw.Target-sym.Addr)/isa.InstSize]]
			b.Succs = append(b.Succs, tgt)
			if term.Raw.Cond != isa.CondAL {
				if i+1 < len(fn.Blocks) {
					b.Succs = append(b.Succs, fn.Blocks[i+1])
				}
			}
		case isa.OpBX:
			// Return: no successors.
		default:
			if i+1 < len(fn.Blocks) {
				b.Succs = append(b.Succs, fn.Blocks[i+1])
			}
		}
	}

	fn.findLoops()
	return fn, nil
}

// findLoops marks natural-loop membership using DFS back edges.
func (f *Function) findLoops() {
	f.LoopBlocks = make(map[int]bool)
	state := make([]int, len(f.Blocks)) // 0 unvisited, 1 on stack, 2 done
	var preds [][]*Block                // built at the first back edge
	var walk func(b *Block)
	walk = func(b *Block) {
		state[b.Index] = 1
		for _, s := range b.Succs {
			switch state[s.Index] {
			case 0:
				walk(s)
			case 1:
				// Back edge b -> s: the natural loop is s plus every node
				// that reaches b without passing through s.
				f.BackEdges = append(f.BackEdges, [2]int{b.Index, s.Index})
				if preds == nil {
					preds = make([][]*Block, len(f.Blocks))
					for _, p := range f.Blocks {
						for _, q := range p.Succs {
							preds[q.Index] = append(preds[q.Index], p)
						}
					}
				}
				f.markLoop(b, s, preds)
			}
		}
		state[b.Index] = 2
	}
	if f.Entry != nil {
		walk(f.Entry)
	}
}

// markLoop marks the natural loop of back edge tail->header via reverse
// reachability from tail, stopping at the header.
func (f *Function) markLoop(tail, header *Block, preds [][]*Block) {
	inLoop := map[int]bool{header.Index: true}
	stack := []*Block{tail}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if inLoop[b.Index] {
			continue
		}
		inLoop[b.Index] = true
		stack = append(stack, preds[b.Index]...)
	}
	for i := range inLoop {
		f.LoopBlocks[i] = true
	}
}

// buildCallGraph populates Callees/Callers from direct local calls.
func (p *Program) buildCallGraph() {
	for _, fn := range p.Funcs {
		seen := map[string]bool{}
		for _, cs := range fn.Calls {
			if cs.Kind != CallLocal || seen[cs.Callee] {
				continue
			}
			seen[cs.Callee] = true
			p.Callees[fn.Name] = append(p.Callees[fn.Name], cs.Callee)
			p.Callers[cs.Callee] = append(p.Callers[cs.Callee], fn.Name)
		}
		sort.Strings(p.Callees[fn.Name])
	}
	for k := range p.Callers {
		sort.Strings(p.Callers[k])
	}
}

// AddCallEdge inserts a resolved indirect call edge (from the
// data-structure-similarity component) into the call graph and the
// function's callsite table.
func (p *Program) AddCallEdge(caller string, site uint32, callee string) {
	fn := p.ByName[caller]
	if fn == nil || p.ByName[callee] == nil {
		return
	}
	for i := range fn.Calls {
		if fn.Calls[i].Addr == site && fn.Calls[i].Kind == CallIndirect {
			fn.Calls[i].Callee = callee
			fn.Calls[i].Target = p.ByName[callee].Addr
		}
	}
	for _, c := range p.Callees[caller] {
		if c == callee {
			return
		}
	}
	p.Callees[caller] = append(p.Callees[caller], callee)
	sort.Strings(p.Callees[caller])
	p.Callers[callee] = append(p.Callers[callee], caller)
	sort.Strings(p.Callers[callee])
}

// Stats summarizes the program for Table II.
type Stats struct {
	Functions      int
	Blocks         int
	CallGraphEdges int
}

// Stats computes Table II-style counts. Call-graph edges count every
// static callsite (local, import, and indirect), matching how binary
// tools report call graph size.
func (p *Program) Stats() Stats {
	var s Stats
	s.Functions = len(p.Funcs)
	for _, fn := range p.Funcs {
		s.Blocks += len(fn.Blocks)
		s.CallGraphEdges += len(fn.Calls)
	}
	return s
}

// SCC computes strongly connected components of the call graph restricted
// to the given function names and returns them in reverse topological
// order (callees before callers) — the bottom-up visiting order of
// Section III-E. Functions absent from names are ignored.
func (p *Program) SCC(names []string) [][]string {
	inSet := make(map[string]bool, len(names))
	for _, n := range names {
		if p.ByName[n] != nil {
			inSet[n] = true
		}
	}
	// Tarjan's algorithm, iterative over the name set in sorted order for
	// determinism.
	sorted := make([]string, 0, len(inSet))
	for n := range inSet {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	index := make(map[string]int, len(sorted))
	low := make(map[string]int, len(sorted))
	onStack := make(map[string]bool, len(sorted))
	var stack []string
	var comps [][]string
	next := 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range p.Callees[v] {
			if !inSet[w] {
				continue
			}
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, v := range sorted {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation (a component is completed only after everything it can
	// reach), which is exactly callees-before-callers.
	return comps
}
