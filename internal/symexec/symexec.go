// Package symexec implements DTaint's per-function static symbolic
// analysis (the "function analysis" component of Section III-B).
//
// The engine interprets the decoded isa.Inst of each instruction directly:
// both encodings decode into the same form, so no separate IR is built.
// Every function is analyzed separately. Registers holding arguments are
// initialized with the symbolic values arg0..arg3 per the calling
// convention; stack-passed arguments appear as arg4..arg9; every callee
// returns a unique symbolic value ret_<callee>_<site>. Memory is described
// by address expressions ("base + offset" with deref marking access), so
// `LDR R1, [R5, #0x4C]` becomes `R1 = deref(R5 + 0x4C)`.
//
// The engine explores both directions of each conditional branch and
// applies the paper's loop heuristic — blocks in the same loop are only
// analyzed once (per path) — producing for each function its definition
// pairs, branch constraints, callsites, inferred types, and data-structure
// field observations.
package symexec

import (
	"sort"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/isa"
	"dtaint/internal/vrange"
)

// DefPair is the paper's definition pair (d, u): d names a storage
// location (a deref expression), u is the value defined there.
type DefPair struct {
	D    *expr.Expr
	U    *expr.Expr
	Addr uint32
	Size int // 1 or 4; 0 for synthesized pairs (library models, callees)
}

// Constraint is a branch condition observed on some path, used by the
// vulnerability detector to decide whether tainted data was sanitized.
type Constraint struct {
	L, R   *expr.Expr
	Cond   isa.Cond
	Addr   uint32
	InLoop bool
}

// CallRecord is a callsite with its evaluated actual arguments.
type CallRecord struct {
	Addr   uint32
	Kind   cfg.CallKind
	Callee string // empty for unresolved indirect calls
	Args   []*expr.Expr
	Ret    *expr.Expr // value left in the return register
	// FnPtr is the symbolic value of the call-target register for
	// indirect calls (typically deref(obj + off)).
	FnPtr  *expr.Expr
	InLoop bool
}

// FieldObs is one observed data-structure field access in 'base + offset'
// form, feeding the data-structure layout similarity (Section III-D).
type FieldObs struct {
	Base *expr.Expr
	Off  int64
	Ty   expr.Type
	// FnTarget names the function whose address was stored into this
	// field, when the store value was a known code address.
	FnTarget string
}

// LoopStore is a store executed inside a natural loop; the detector uses
// these to recognize loop-copy sinks (Table I's "loop" sink).
type LoopStore struct {
	Addr     uint32
	AddrExpr *expr.Expr
	Val      *expr.Expr
	Size     int
}

// Summary is the result of analyzing one function.
type Summary struct {
	Func string
	Addr uint32

	DefPairs    []DefPair
	Rets        []*expr.Expr
	Calls       []CallRecord
	Constraints []Constraint
	Types       map[string]expr.Type
	Fields      []FieldObs
	LoopStores  []LoopStore
	UndefUses   []*expr.Expr
	// Ranges are the per-symbol value intervals proven for this function:
	// upper-bound evidence from branch constraints (with widening for
	// bounds observed inside loops), plus facts contributed by library
	// models and summarized callees through CallEffect.Ranges. Keys are
	// expression keys (symbol names, deref keys, or whole-expression
	// keys for callee return values).
	Ranges map[string]vrange.Interval

	BlocksAnalyzed int
	StatesExplored int
	Truncated      bool // dropped a path at MaxStatesPerBlock or stopped at MaxStatesPerFunc
}

// Proto declares the argument and return types of a library function, one
// of the paper's two type-inference channels ("in the most standard
// library calls, the parameters are specified data types").
type Proto struct {
	Args []expr.Type
	Ret  expr.Type
}

// CallEffect is what an Oracle applies to the state at a callsite.
type CallEffect struct {
	// Handled reports the oracle modeled the call; otherwise the engine
	// assigns a fresh ret symbol and nothing else.
	Handled bool
	// Ret overrides the return value (nil keeps the fresh ret symbol).
	Ret *expr.Expr
	// MemDefs are memory definitions the callee performs, expressed over
	// caller values (Algorithm 2's pushed definition pairs).
	MemDefs []MemDef
	// Ranges are value-interval facts the call establishes in the caller,
	// keyed by expression key — e.g. fgets(buf, n, f) bounds the length
	// of the content it writes by n-1, and a summarized callee's proven
	// return range is attached to the instantiated return expression.
	// Facts for a key already known are combined by Meet (both hold).
	Ranges map[string]vrange.Interval
}

// MemDef is a memory write: mem[Addr] = Val.
type MemDef struct {
	Addr *expr.Expr
	Val  *expr.Expr
}

// CallContext gives an Oracle access to the callsite.
type CallContext struct {
	Func   string
	Site   uint32
	Kind   cfg.CallKind
	Callee string
	Args   []*expr.Expr
	InLoop bool

	st     *State
	ranges map[string]vrange.Interval
}

// RangeOf returns the interval proven so far for an expression key
// (facts contributed by earlier CallEffect.Ranges on this function).
// Oracles use it to chain models — e.g. strtol's result range depends
// on the proven length of its input string.
func (c *CallContext) RangeOf(key string) (vrange.Interval, bool) {
	iv, ok := c.ranges[key]
	return iv, ok
}

// Resolve returns the value stored at pointer p, or deref(p) when the
// location has no known definition on this path.
func (c *CallContext) Resolve(p *expr.Expr) *expr.Expr { return c.st.Resolve(p) }

// ResolveDeep resolves nested derefs against the path state, bounded.
func (c *CallContext) ResolveDeep(e *expr.Expr) *expr.Expr { return c.st.ResolveDeep(e) }

// MemSnapshot copies the path's memory state (address key -> value). The
// top-down baseline passes it into recursive callee analyses for full
// context sensitivity.
func (c *CallContext) MemSnapshot() map[string]*expr.Expr {
	out := make(map[string]*expr.Expr, len(c.st.mem))
	for k, v := range c.st.mem {
		out[k] = v
	}
	return out
}

// Oracle models calls: library functions (sources, sinks, libc) and —
// during the interprocedural pass — previously summarized local callees.
type Oracle interface {
	Call(ctx *CallContext) CallEffect
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(ctx *CallContext) CallEffect

// Call implements Oracle.
func (f OracleFunc) Call(ctx *CallContext) CallEffect { return f(ctx) }

// Options tunes the engine.
type Options struct {
	// MaxStatesPerBlock caps how many distinct symbolic states are
	// propagated through one basic block (path merging bound). The paper
	// notes a block "may contain several distinct symbolic states in the
	// different path".
	MaxStatesPerBlock int
	// MaxStatesPerFunc caps total explored states.
	MaxStatesPerFunc int
	// LoopOnce enables the paper's heuristic: blocks in the same loop are
	// only analyzed once per path. Disabling it (ablation) falls back to
	// MaxLoopIters visits per block per path.
	LoopOnce     bool
	MaxLoopIters int
	// Prototypes maps library function names to their type signatures.
	Prototypes map[string]Proto
	// InitialArgs, when non-nil, seeds the argument registers with the
	// given expressions instead of the symbolic arg0..arg3 — used by the
	// context-sensitive top-down baseline, which re-analyzes each callee
	// with the caller's actual expressions.
	InitialArgs []*expr.Expr
	// InitialMem, when non-nil, seeds the entry memory state (copied).
	InitialMem map[string]*expr.Expr
	// Trace, when non-nil, receives one line per executed statement with
	// the evaluated symbolic values — the paper's Figure 6 listing
	// ("65C: deref(arg0+0x4C) = deref(arg1+0x24)").
	Trace func(addr uint32, line string)
}

// Defaults fills zero fields with production values.
func (o Options) withDefaults() Options {
	if o.MaxStatesPerBlock <= 0 {
		o.MaxStatesPerBlock = 4
	}
	if o.MaxStatesPerFunc <= 0 {
		o.MaxStatesPerFunc = 4096
	}
	if o.MaxLoopIters <= 0 {
		o.MaxLoopIters = 2
	}
	return o
}

// State is one symbolic machine state along a path.
type State struct {
	regs    [isa.NumRegs]*expr.Expr
	mem     map[string]*expr.Expr // address key -> value
	visits  map[int]int           // block index -> visits on this path
	cmpL    *expr.Expr
	cmpR    *expr.Expr
	hasFlag bool
}

func (s *State) clone() *State {
	n := &State{cmpL: s.cmpL, cmpR: s.cmpR, hasFlag: s.hasFlag}
	n.regs = s.regs
	n.mem = make(map[string]*expr.Expr, len(s.mem))
	for k, v := range s.mem {
		n.mem[k] = v
	}
	n.visits = make(map[int]int, len(s.visits))
	for k, v := range s.visits {
		n.visits[k] = v
	}
	return n
}

// Reg returns the symbolic value of a register.
func (s *State) Reg(r isa.Reg) *expr.Expr { return s.regs[r] }

// Resolve returns the value at pointer p on this path, or deref(p).
func (s *State) Resolve(p *expr.Expr) *expr.Expr {
	if p == nil {
		return nil
	}
	if v, ok := s.mem[p.Key()]; ok {
		return v
	}
	return expr.Deref(p)
}

// ResolveDeep rewrites deref subexpressions of e through the path memory,
// bounded to a few rounds.
func (s *State) ResolveDeep(e *expr.Expr) *expr.Expr {
	if e == nil {
		return nil
	}
	for round := 0; round < 4; round++ {
		changed := false
		e2 := s.rewriteDerefs(e, &changed)
		if !changed {
			return e2
		}
		e = e2
	}
	return e
}

func (s *State) rewriteDerefs(e *expr.Expr, changed *bool) *expr.Expr {
	switch e.Kind() {
	case expr.KindDeref:
		addr, _ := e.DerefAddr()
		if v, ok := s.mem[addr.Key()]; ok && !v.Equal(e) {
			*changed = true
			return v
		}
		// Resolve the address itself (inner-first): deref(deref(p)) needs
		// deref(p) rewritten to the stored pointer before the outer lookup
		// can hit. The next round retries the lookup.
		na := s.rewriteDerefs(addr, changed)
		if na != addr {
			return expr.Deref(na)
		}
		return e
	case expr.KindBinOp:
		op, x, y, _ := e.BinOperands()
		nx := s.rewriteDerefs(x, changed)
		ny := s.rewriteDerefs(y, changed)
		if nx == x && ny == y {
			return e
		}
		return expr.Bin(op, nx, ny)
	}
	return e
}

type engine struct {
	fn     *cfg.Function
	bin    *image.Binary
	conv   isa.CallConv
	oracle Oracle
	opts   Options

	sum        *Summary
	ranges     map[string]vrange.Interval // facts from oracle CallEffects
	defSeen    map[string]bool
	constSeen  map[constraintKey]bool
	fieldSeen  map[string]bool
	retSeen    map[string]bool
	useSeen    map[string]bool
	blockSeen  map[int]int // total states executed per block
	callByAddr map[uint32]cfg.CallSite
}

// Analyze runs the static symbolic analysis over one function.
func Analyze(fn *cfg.Function, bin *image.Binary, oracle Oracle, opts Options) *Summary {
	e := &engine{
		fn:     fn,
		bin:    bin,
		conv:   bin.Arch.Conv(),
		oracle: oracle,
		opts:   opts.withDefaults(),
		sum: &Summary{
			Func:  fn.Name,
			Addr:  fn.Addr,
			Types: make(map[string]expr.Type),
		},
		ranges:     make(map[string]vrange.Interval),
		defSeen:    make(map[string]bool),
		constSeen:  make(map[constraintKey]bool),
		fieldSeen:  make(map[string]bool),
		retSeen:    make(map[string]bool),
		useSeen:    make(map[string]bool),
		blockSeen:  make(map[int]int),
		callByAddr: make(map[uint32]cfg.CallSite, len(fn.Calls)),
	}
	for _, cs := range fn.Calls {
		e.callByAddr[cs.Addr] = cs
	}
	e.run()
	e.sum.Ranges = DeriveRanges(e.sum.Constraints, e.ranges)
	return e.sum
}

// mergeRange meets an oracle-provided interval fact into the function's
// accumulated ranges. Meet is commutative and associative, so the result
// is independent of the order facts arrive in.
func (e *engine) mergeRange(key string, iv vrange.Interval) {
	if key == "" || iv.IsTop() {
		return
	}
	if old, ok := e.ranges[key]; ok {
		iv = old.Meet(iv)
	}
	e.ranges[key] = iv
}

// DeriveRanges builds a per-symbol interval environment from branch
// constraints and (optionally nil) oracle facts accumulated during
// execution. The detector also calls it over the carried constraints of
// a pending sink, re-deriving bounds in the caller's namespace after
// formal arguments were substituted.
//
// The engine records the constraints of both directions of every branch
// (taken and fall-through are different paths), so meeting everything
// per symbol would yield ⊥ for any compared value. Instead only
// upper-bound evidence is kept (intervals with a finite Hi — a pure
// lower bound can never prove a copy fits), and sibling bounds on the
// same symbol are joined: the weakest recorded upper bound is the one
// the detector may trust. Bounds observed inside loops go through
// Widen — a bound that escapes previously seen evidence is assumed
// unstable across iterations and jumps to the domain edge. Oracle facts
// (libc models, callee summaries) hold unconditionally and are met in
// last.
func DeriveRanges(cs []Constraint, oracle map[string]vrange.Interval) map[string]vrange.Interval {
	derived := make(map[string]vrange.Interval)
	apply := func(key string, iv vrange.Interval, inLoop bool) {
		if !iv.Bounded() {
			return
		}
		old, ok := derived[key]
		switch {
		case !ok:
			derived[key] = iv
		case inLoop:
			derived[key] = old.Widen(iv)
		default:
			derived[key] = old.Join(iv)
		}
	}
	for _, c := range cs {
		if key, iv, ok := vrange.FromConstraint(c.L, c.R, c.Cond); ok {
			apply(key, iv, c.InLoop)
			continue
		}
		// Taint bookkeeping OR-combines the real value with marker
		// symbols (e.g. strlen's len_x | taint_recv_1): a comparison of
		// the combined register bounds every component.
		l, r := c.L, c.R
		if _, isConst := l.ConstVal(); isConst {
			l, r = r, l
		}
		if _, isConst := r.ConstVal(); !isConst {
			continue
		}
		for _, comp := range orComponents(l) {
			if key, iv, ok := vrange.FromConstraint(comp, r, c.Cond); ok {
				apply(key, iv, c.InLoop)
			}
		}
	}
	for key, iv := range oracle {
		if old, ok := derived[key]; ok {
			iv = old.Meet(iv)
		}
		derived[key] = iv
	}
	if len(derived) == 0 {
		return nil
	}
	return derived
}

// orComponents splits an OR-combined expression into its components; a
// non-OR expression is its own single component.
func orComponents(e *expr.Expr) []*expr.Expr {
	if e == nil {
		return nil
	}
	if op, x, y, ok := e.BinOperands(); ok && op == expr.OpOr {
		return append(orComponents(x), orComponents(y)...)
	}
	return []*expr.Expr{e}
}

func (e *engine) initialState() *State {
	st := &State{
		mem:    make(map[string]*expr.Expr),
		visits: make(map[int]int),
	}
	// Uninitialized registers get function-unique symbols so that junk
	// values never unify across functions.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		st.regs[r] = expr.Sym("init_" + e.fn.Name + "_" + r.Name())
	}
	for i, r := range e.conv.ArgRegs {
		st.regs[r] = expr.Arg(i)
		e.sum.Types[expr.ArgName(i)] = expr.TypeUnknown
	}
	if e.opts.InitialArgs != nil {
		for i, r := range e.conv.ArgRegs {
			if i < len(e.opts.InitialArgs) && e.opts.InitialArgs[i] != nil {
				st.regs[r] = e.opts.InitialArgs[i]
			}
		}
	}
	for k, v := range e.opts.InitialMem {
		st.mem[k] = v
	}
	st.regs[isa.SP] = expr.Sym(expr.StackSym)
	return st
}

// workItem is a block waiting to run on a path state. The successors
// of one block all hold their parent's state: each but the last carries
// share and clones it when popped, and the last, popped after its
// siblings' subtrees are done, takes it over. A dropped item copies
// nothing.
type workItem struct {
	block *cfg.Block
	st    *State
	share bool
}

func (e *engine) run() {
	if e.fn.Entry == nil {
		return
	}
	stack := []workItem{{block: e.fn.Entry, st: e.initialState()}}
	for len(stack) > 0 {
		if e.sum.StatesExplored >= e.opts.MaxStatesPerFunc {
			e.sum.Truncated = true
			return
		}
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		b := it.block
		st := it.st
		// Loop-once heuristic: a block already visited on this path is not
		// re-analyzed (or at most MaxLoopIters times in the ablation).
		limit := 1
		if !e.opts.LoopOnce {
			limit = e.opts.MaxLoopIters
		}
		if st.visits[b.Index] >= limit {
			continue
		}
		// Per-block merging bound across all paths.
		if e.blockSeen[b.Index] >= e.opts.MaxStatesPerBlock {
			e.sum.Truncated = true
			continue
		}
		if it.share {
			st = st.clone()
		}
		st.visits[b.Index]++
		e.blockSeen[b.Index]++
		e.sum.StatesExplored++
		if e.blockSeen[b.Index] == 1 {
			e.sum.BlocksAnalyzed++
		}

		next := e.execBlock(b, st)
		// Push in reverse so the first successor is explored first.
		for i := len(next) - 1; i >= 0; i-- {
			stack = append(stack, next[i])
		}
	}
}

// execBlock executes all instructions of b over st and returns successor
// work items, all on st (see workItem).
func (e *engine) execBlock(b *cfg.Block, st *State) []workItem {
	inLoop := e.fn.LoopBlocks[b.Index]
	for _, in := range b.Insts {
		e.exec(in.Addr, in.Raw, st, inLoop)
	}

	term, hasTerm := b.Terminator()
	var items []workItem
	switch {
	case hasTerm && term.Raw.Op == isa.OpBX:
		e.recordRet(st)
		return nil
	case hasTerm && term.Raw.Op == isa.OpB && term.Raw.Cond != isa.CondAL:
		// Constant comparisons decide the branch statically; the infeasible
		// side is pruned so dead code does not produce phantom paths. The
		// pruning is skipped when the feasible target was already visited
		// (a statically-true loop back edge): the path must still leave
		// the loop through the other side under the loop-once heuristic.
		takeTaken, takeFall := true, true
		if st.hasFlag {
			if lv, okL := st.cmpL.ConstVal(); okL {
				if rv, okR := st.cmpR.ConstVal(); okR {
					feasible := evalCond(term.Raw.Cond, lv, rv)
					if feasible && len(b.Succs) > 0 && st.visits[b.Succs[0].Index] == 0 {
						takeFall = false
					}
					if !feasible && len(b.Succs) > 1 && st.visits[b.Succs[1].Index] == 0 {
						takeTaken = false
					}
				}
			}
		}
		// Conditional: successor 0 is taken, 1 is fallthrough.
		if takeTaken && len(b.Succs) > 0 {
			e.recordConstraint(term.Addr, st, term.Raw.Cond, inLoop)
			items = append(items, workItem{block: b.Succs[0], st: st})
		}
		if takeFall && len(b.Succs) > 1 {
			e.recordConstraint(term.Addr, st, term.Raw.Cond.Negate(), inLoop)
			items = append(items, workItem{block: b.Succs[1], st: st})
		}
	default:
		for _, s := range b.Succs {
			items = append(items, workItem{block: s, st: st})
		}
		// A block that falls off the end of the function acts as a return.
		if len(b.Succs) == 0 {
			e.recordRet(st)
		}
	}
	for i := 0; i < len(items)-1; i++ {
		items[i].share = true
	}
	return items
}

func (e *engine) exec(addr uint32, in isa.Inst, st *State, inLoop bool) {
	switch in.Op {
	case isa.OpMOV:
		st.regs[in.Rd] = e.src(in, st)
		e.traceReg(addr, in.Rd, st)
	case isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpAND, isa.OpORR, isa.OpEOR, isa.OpLSL, isa.OpLSR:
		st.regs[in.Rd] = expr.Bin(binOps[in.Op], st.regs[in.Rn], e.src(in, st))
		e.traceReg(addr, in.Rd, st)
	case isa.OpCMP:
		st.cmpL = st.regs[in.Rd]
		st.cmpR = e.src(in, st)
		st.hasFlag = true
		if e.opts.Trace != nil {
			e.opts.Trace(addr, "flags = cmp("+st.cmpL.Key()+", "+st.cmpR.Key()+")")
		}
		// Type inference from machine instructions: `CMP R0, 8` means the
		// value held in R0 is an integer (Section III-B).
		if in.HasImm {
			e.observeType(st.cmpL, expr.TypeInt)
		}
	case isa.OpLDR, isa.OpLDRB:
		size := accessSize(in.Op)
		base := st.regs[in.Rn]
		addrE := expr.Add(base, int64(in.Imm))
		e.observeType(base, expr.TypePtr)
		e.observeField(base, int64(in.Imm), loadType(size), "")
		v := e.loadValue(addrE, st)
		st.regs[in.Rd] = v
		e.traceReg(addr, in.Rd, st)
		if size == 1 {
			e.observeType(v, expr.TypeChar)
		}
	case isa.OpSTR, isa.OpSTRB:
		size := accessSize(in.Op)
		base := st.regs[in.Rn]
		addrE := expr.Add(base, int64(in.Imm))
		e.observeType(base, expr.TypePtr)
		val := st.regs[in.Rd]
		fieldTy := loadType(size)
		fnTarget := ""
		if c, ok := val.ConstVal(); ok && size == 4 {
			if sym, ok := e.bin.FuncAt(uint32(c)); ok {
				fieldTy = expr.TypeFuncPtr
				fnTarget = sym.Name
				e.observeType(val, expr.TypeFuncPtr)
			}
		} else if e.isPointerValue(val) && size == 4 {
			fieldTy = expr.TypePtr
		}
		e.observeField(base, int64(in.Imm), fieldTy, fnTarget)
		st.mem[addrE.Key()] = val
		if e.opts.Trace != nil {
			e.opts.Trace(addr, "deref("+addrE.Key()+") = "+val.Key())
		}
		e.recordDef(expr.Deref(addrE), val, addr, size)
		if inLoop {
			e.sum.LoopStores = append(e.sum.LoopStores, LoopStore{
				Addr: addr, AddrExpr: addrE, Val: val, Size: size,
			})
		}
	case isa.OpBL, isa.OpBLX:
		e.execCall(addr, in, st, inLoop)
	}
	// NOP does nothing; B and BX are handled at block level.
}

// binOps maps the ALU opcodes onto their expression operators.
var binOps = [...]expr.Op{
	isa.OpADD: expr.OpAdd,
	isa.OpSUB: expr.OpSub,
	isa.OpMUL: expr.OpMul,
	isa.OpAND: expr.OpAnd,
	isa.OpORR: expr.OpOr,
	isa.OpEOR: expr.OpXor,
	isa.OpLSL: expr.OpShl,
	isa.OpLSR: expr.OpShr,
}

// accessSize is a load or store's width in bytes.
func accessSize(op isa.Opcode) int {
	if op == isa.OpLDRB || op == isa.OpSTRB {
		return 1
	}
	return 4
}

// evalCond evaluates a branch condition over two signed constants.
func evalCond(c isa.Cond, l, r int64) bool {
	switch c {
	case isa.CondEQ:
		return l == r
	case isa.CondNE:
		return l != r
	case isa.CondLT:
		return l < r
	case isa.CondGE:
		return l >= r
	case isa.CondGT:
		return l > r
	case isa.CondLE:
		return l <= r
	}
	return true
}

func loadType(size int) expr.Type {
	if size == 1 {
		return expr.TypeChar
	}
	return expr.TypeUnknown
}

// loadValue reads memory at addrE, falling back to the symbolic deref and
// recognizing stack-passed incoming arguments.
func (e *engine) loadValue(addrE *expr.Expr, st *State) *expr.Expr {
	if v, ok := st.mem[addrE.Key()]; ok {
		return v
	}
	// Incoming stack arguments: [sp0 + j*4] is arg(4+j).
	if base, off, ok := addrE.BasePlusOffset(); ok {
		if name, isSym := base.SymName(); isSym && name == expr.StackSym && off >= 0 && off%4 == 0 {
			idx := 4 + int(off/4)
			if idx < e.conv.MaxArgs {
				return expr.Arg(idx)
			}
		}
	}
	v := expr.Deref(addrE)
	e.recordUndefUse(v)
	return v
}

// src evaluates an instruction's second operand: the immediate when it
// has one, else register Rm.
func (e *engine) src(in isa.Inst, st *State) *expr.Expr {
	if in.HasImm {
		return expr.Const(int64(in.Imm))
	}
	return st.regs[in.Rm]
}

func (e *engine) execCall(addr uint32, in isa.Inst, st *State, inLoop bool) {
	cs := e.callByAddr[addr]
	args := e.collectArgs(st)

	rec := CallRecord{
		Addr:   addr,
		Kind:   cs.Kind,
		Callee: cs.Callee,
		Args:   args,
		InLoop: inLoop,
	}
	calleeName := cs.Callee
	if cs.Kind == cfg.CallIndirect {
		rec.FnPtr = st.regs[in.Rm]
		if calleeName == "" {
			calleeName = "indirect"
		}
	}
	if calleeName == "" {
		calleeName = "unknown"
	}

	retSym := expr.Sym(expr.RetName(calleeName, uint64(addr)))
	ret := retSym
	if e.oracle != nil {
		ctx := &CallContext{
			Func:   e.fn.Name,
			Site:   addr,
			Kind:   cs.Kind,
			Callee: calleeName,
			Args:   args,
			InLoop: inLoop,
			st:     st,
			ranges: e.ranges,
		}
		eff := e.oracle.Call(ctx)
		if eff.Handled {
			for _, md := range eff.MemDefs {
				if md.Addr == nil || md.Val == nil {
					continue
				}
				st.mem[md.Addr.Key()] = md.Val
				e.recordDef(expr.Deref(md.Addr), md.Val, addr, 0)
			}
			for k, iv := range eff.Ranges {
				e.mergeRange(k, iv)
			}
			if eff.Ret != nil {
				ret = eff.Ret
			}
		}
	}
	// Library prototypes refine argument and return types.
	if proto, ok := e.opts.Prototypes[calleeName]; ok {
		for i, ty := range proto.Args {
			if i < len(args) && args[i] != nil {
				e.observeType(args[i], ty)
			}
		}
		if proto.Ret != expr.TypeUnknown {
			e.observeType(ret, proto.Ret)
		}
	}
	st.regs[e.conv.RetReg] = ret
	rec.Ret = ret
	if e.opts.Trace != nil {
		e.opts.Trace(addr, "call "+calleeName+", "+e.conv.RetReg.Name()+" = "+ret.Key())
	}
	e.sum.Calls = append(e.sum.Calls, rec)
}

// collectArgs gathers register arguments plus any stack-passed arguments
// visible at the current SP.
func (e *engine) collectArgs(st *State) []*expr.Expr {
	args := make([]*expr.Expr, 0, e.conv.MaxArgs)
	for _, r := range e.conv.ArgRegs {
		args = append(args, st.regs[r])
	}
	sp := st.regs[isa.SP]
	for j := 0; len(args) < e.conv.MaxArgs; j++ {
		slot := expr.Add(sp, int64(j)*4)
		v, ok := st.mem[slot.Key()]
		if !ok {
			break
		}
		args = append(args, v)
	}
	return args
}

// traceReg emits a Figure 6-style "reg = value" line when tracing is
// enabled. Every trace line is built only under that check: built
// unconditionally, the strings cost an allocation per executed
// instruction.
func (e *engine) traceReg(addr uint32, r isa.Reg, st *State) {
	if e.opts.Trace != nil {
		e.opts.Trace(addr, r.Name()+" = "+st.regs[r].Key())
	}
}

func (e *engine) recordRet(st *State) {
	v := st.regs[e.conv.RetReg]
	if v == nil {
		return
	}
	if !e.retSeen[v.Key()] {
		e.retSeen[v.Key()] = true
		e.sum.Rets = append(e.sum.Rets, v)
	}
}

func (e *engine) recordDef(d, u *expr.Expr, addr uint32, size int) {
	key := d.Key() + "=" + u.Key()
	if e.defSeen[key] {
		return
	}
	e.defSeen[key] = true
	e.sum.DefPairs = append(e.sum.DefPairs, DefPair{D: d, U: u, Addr: addr, Size: size})
}

// constraintKey identifies a recorded branch constraint.
type constraintKey struct {
	l, r string
	cond isa.Cond
}

func (e *engine) recordConstraint(addr uint32, st *State, cond isa.Cond, inLoop bool) {
	if !st.hasFlag {
		return
	}
	key := constraintKey{st.cmpL.Key(), st.cmpR.Key(), cond}
	if e.constSeen[key] {
		return
	}
	e.constSeen[key] = true
	e.sum.Constraints = append(e.sum.Constraints, Constraint{
		L: st.cmpL, R: st.cmpR, Cond: cond, Addr: addr, InLoop: inLoop,
	})
}

func (e *engine) recordUndefUse(u *expr.Expr) {
	root := u.RootPointer()
	if root == nil {
		return
	}
	name, ok := root.SymName()
	if !ok {
		return
	}
	if _, isArg := expr.ArgIndex(name); !isArg && !expr.IsHeapName(name) && !expr.IsTaintName(name) {
		return
	}
	if e.useSeen[u.Key()] {
		return
	}
	e.useSeen[u.Key()] = true
	e.sum.UndefUses = append(e.sum.UndefUses, u)
}

func (e *engine) observeType(v *expr.Expr, ty expr.Type) {
	if v == nil || ty == expr.TypeUnknown {
		return
	}
	if _, isConst := v.ConstVal(); isConst && ty != expr.TypeFuncPtr {
		return
	}
	k := v.Key()
	e.sum.Types[k] = e.sum.Types[k].Join(ty)
}

func (e *engine) observeField(base *expr.Expr, off int64, ty expr.Type, fnTarget string) {
	if base == nil {
		return
	}
	if _, isConst := base.ConstVal(); isConst {
		return
	}
	key := base.Key() + "#" + itoa(off) + "#" + ty.String() + "#" + fnTarget
	if e.fieldSeen[key] {
		return
	}
	e.fieldSeen[key] = true
	e.sum.Fields = append(e.sum.Fields, FieldObs{Base: base, Off: off, Ty: ty, FnTarget: fnTarget})
}

// isPointerValue guesses whether a value expression is a pointer: known
// pointer type, heap identity, the stack pointer, or an argument already
// observed as a pointer base.
func (e *engine) isPointerValue(v *expr.Expr) bool {
	if v == nil {
		return false
	}
	if e.sum.Types[v.Key()].IsPointer() {
		return true
	}
	if name, ok := v.SymName(); ok {
		if expr.IsHeapName(name) || name == expr.StackSym {
			return true
		}
	}
	if base, _, ok := v.BasePlusOffset(); ok && base != v {
		if name, ok := base.SymName(); ok && (name == expr.StackSym || expr.IsHeapName(name)) {
			return true
		}
	}
	return false
}

func itoa(v int64) string {
	// small local helper to avoid strconv import churn
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// SortedDefKeys returns the definition-pair destination keys in sorted
// order (diagnostics and tests).
func (s *Summary) SortedDefKeys() []string {
	out := make([]string, 0, len(s.DefPairs))
	for _, dp := range s.DefPairs {
		out = append(out, dp.D.Key())
	}
	sort.Strings(out)
	return out
}

// FindDefs returns all definition pairs whose destination matches key.
func (s *Summary) FindDefs(key string) []DefPair {
	var out []DefPair
	for _, dp := range s.DefPairs {
		if dp.D.Key() == key {
			out = append(out, dp)
		}
	}
	return out
}
