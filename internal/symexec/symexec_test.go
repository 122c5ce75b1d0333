package symexec

import (
	"strings"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/isa"
)

func build(t *testing.T, src string) (*cfg.Program, *image.Binary) {
	t.Helper()
	bin, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	return p, bin
}

func analyze(t *testing.T, src, fn string, o Oracle) *Summary {
	t.Helper()
	p, bin := build(t, src)
	f := p.ByName[fn]
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	return Analyze(f, bin, o, Options{})
}

// recvOracle models recv(fd, buf, n): the buffer contents become tainted.
type recvOracle struct{}

func (recvOracle) Call(ctx *CallContext) CallEffect {
	if ctx.Callee != "recv" || len(ctx.Args) < 2 {
		return CallEffect{}
	}
	return CallEffect{
		Handled: true,
		MemDefs: []MemDef{{Addr: ctx.Args[1], Val: expr.Sym(expr.TaintName("recv", uint64(ctx.Site)))}},
	}
}

func TestVariableDescription(t *testing.T) {
	// The paper's running example: woo(arg0, arg1) stores
	// deref(arg0+0x4C) = deref(arg1+0x24).
	sum := analyze(t, `
.arch arm
.import recv
.func woo
  LDR R5, [R1, #0x24]
  STR R5, [R0, #0x4C]
  MOV R2, #0x200
  MOV R1, R5
  BL recv
  BX LR
.endfunc
`, "woo", recvOracle{})

	wantD := expr.Deref(expr.Add(expr.Arg(0), 0x4C)).Key()
	wantU := expr.Deref(expr.Add(expr.Arg(1), 0x24)).Key()
	var found bool
	for _, dp := range sum.DefPairs {
		if dp.D.Key() == wantD && dp.U.Key() == wantU {
			found = true
		}
	}
	if !found {
		t.Fatalf("defpair %s = %s not found in %v", wantD, wantU, sum.SortedDefKeys())
	}

	// recv taints deref(deref(arg1+0x24)).
	taintD := expr.Deref(expr.Deref(expr.Add(expr.Arg(1), 0x24))).Key()
	defs := sum.FindDefs(taintD)
	if len(defs) != 1 || !defs[0].U.ContainsTaint() {
		t.Fatalf("taint def missing: %v", sum.SortedDefKeys())
	}
}

func TestCallingConventionARMvsMIPS(t *testing.T) {
	armSum := analyze(t, `
.arch arm
.func f
  STR R0, [SP, #-8]
  BX LR
.endfunc
`, "f", nil)
	mipsSum := analyze(t, `
.arch mips
.func f
  STR R4, [SP, #-8]
  BX LR
.endfunc
`, "f", nil)
	want := expr.Deref(expr.Add(expr.Sym(expr.StackSym), -8)).Key()
	for name, sum := range map[string]*Summary{"arm": armSum, "mips": mipsSum} {
		defs := sum.FindDefs(want)
		if len(defs) != 1 {
			t.Fatalf("%s: defs = %v", name, sum.SortedDefKeys())
		}
		if got, _ := defs[0].U.SymName(); got != "arg0" {
			t.Fatalf("%s: stored %s, want arg0", name, defs[0].U)
		}
	}
}

func TestReturnValueSymbolPerCallsite(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  BL g
  MOV R4, R0
  BL g
  MOV R5, R0
  BX LR
.endfunc
.func g
  MOV R0, #7
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Calls) != 2 {
		t.Fatalf("calls = %d", len(sum.Calls))
	}
	r1, r2 := sum.Calls[0].Ret, sum.Calls[1].Ret
	if r1.Equal(r2) {
		t.Fatalf("distinct callsites must produce distinct ret symbols: %s", r1)
	}
	for _, r := range []*expr.Expr{r1, r2} {
		name, _ := r.SymName()
		if !expr.IsRetSym(name) || !strings.Contains(name, "g") {
			t.Fatalf("ret sym = %s", r)
		}
	}
}

func TestStackArgumentsInAndOut(t *testing.T) {
	// Caller passes 6 args: 4 in regs, 2 on the stack; callee reads them.
	p, bin := build(t, `
.arch arm
.func caller
  SUB SP, SP, #0x20
  MOV R0, #10
  MOV R1, #11
  MOV R2, #12
  MOV R3, #13
  MOV R4, #14
  STR R4, [SP, #0]
  MOV R4, #15
  STR R4, [SP, #4]
  BL callee
  BX LR
.endfunc
.func callee
  LDR R5, [SP, #0]
  LDR R6, [SP, #4]
  STR R5, [SP, #-4]
  BX LR
.endfunc
`)
	callerSum := Analyze(p.ByName["caller"], bin, nil, Options{})
	if len(callerSum.Calls) != 1 {
		t.Fatalf("calls = %+v", callerSum.Calls)
	}
	args := callerSum.Calls[0].Args
	if len(args) != 6 {
		t.Fatalf("collected %d args, want 6 (%v)", len(args), args)
	}
	for i, want := range []int64{10, 11, 12, 13, 14, 15} {
		if v, ok := args[i].ConstVal(); !ok || v != want {
			t.Fatalf("arg%d = %s, want %d", i, args[i], want)
		}
	}

	calleeSum := Analyze(p.ByName["callee"], bin, nil, Options{})
	want := expr.Deref(expr.Add(expr.Sym(expr.StackSym), -4)).Key()
	defs := calleeSum.FindDefs(want)
	if len(defs) != 1 {
		t.Fatalf("callee defs = %v", calleeSum.SortedDefKeys())
	}
	if got, _ := defs[0].U.SymName(); got != "arg4" {
		t.Fatalf("stack arg read as %s, want arg4", defs[0].U)
	}
}

func TestLoopOnceHeuristic(t *testing.T) {
	src := `
.arch arm
.func f
  MOV R2, #0
loop:
  LDRB R3, [R1, #0]
  STRB R3, [R0, #0]
  ADD R2, R2, #1
  CMP R2, #16
  BLT loop
  BX LR
.endfunc
`
	sum := analyze(t, src, "f", nil)
	if sum.Truncated {
		t.Fatal("loop-once analysis must terminate untruncated")
	}
	// The loop body stores are recorded as loop stores.
	if len(sum.LoopStores) == 0 {
		t.Fatal("loop store not recorded")
	}
	// Ablation: loop unrolled a bounded number of times still terminates.
	p, bin := build(t, src)
	sum2 := Analyze(p.ByName["f"], bin, nil, Options{LoopOnce: false, MaxLoopIters: 3})
	if sum2.StatesExplored <= sum.StatesExplored {
		t.Fatalf("loop ablation explored %d states, loop-once %d", sum2.StatesExplored, sum.StatesExplored)
	}
}

func TestBothBranchDirectionsExplored(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  CMP R0, #64
  BGE big
  MOV R4, #1
  STR R4, [SP, #-4]
  B done
big:
  MOV R4, #2
  STR R4, [SP, #-4]
done:
  BX LR
.endfunc
`, "f", nil)
	want := expr.Deref(expr.Add(expr.Sym(expr.StackSym), -4)).Key()
	defs := sum.FindDefs(want)
	if len(defs) != 2 {
		t.Fatalf("want defs from both paths, got %v", defs)
	}
	// Both branch polarities recorded as constraints on arg0.
	var ge, lt bool
	for _, c := range sum.Constraints {
		if name, _ := c.L.SymName(); name == "arg0" {
			if c.Cond == isa.CondGE {
				ge = true
			}
			if c.Cond == isa.CondLT {
				lt = true
			}
		}
	}
	if !ge || !lt {
		t.Fatalf("constraints = %+v", sum.Constraints)
	}
}

func TestTypeInference(t *testing.T) {
	sum := analyze(t, `
.arch arm
.import strcpy
.func f
  LDR R4, [R0, #8]
  CMP R1, #5
  MOV R0, R4
  MOV R1, R4
  BL strcpy
  BX LR
.endfunc
`, "f", nil)
	// LDR base: arg0 is a pointer.
	if !sum.Types[expr.ArgName(0)].IsPointer() {
		t.Errorf("arg0 type = %s, want pointer", sum.Types[expr.ArgName(0)])
	}
	// CMP with immediate: arg1 is an integer.
	if sum.Types[expr.ArgName(1)] != expr.TypeInt {
		t.Errorf("arg1 type = %s, want int", sum.Types[expr.ArgName(1)])
	}
	// Prototype channel: strcpy args are char*.
	p, bin := build(t, `
.arch arm
.import strcpy
.func f
  LDR R4, [R0, #8]
  MOV R0, R4
  MOV R1, R4
  BL strcpy
  BX LR
.endfunc
`)
	sum2 := Analyze(p.ByName["f"], bin, nil, Options{
		Prototypes: map[string]Proto{
			"strcpy": {Args: []expr.Type{expr.TypeCharPtr, expr.TypeCharPtr}, Ret: expr.TypeCharPtr},
		},
	})
	loaded := expr.Deref(expr.Add(expr.Arg(0), 8)).Key()
	if sum2.Types[loaded] != expr.TypeCharPtr {
		t.Errorf("deref(arg0+8) type = %s, want char*", sum2.Types[loaded])
	}
}

func TestFieldObservations(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  LDR R4, [R0, #0]
  LDRB R5, [R0, #4]
  LDR R6, [R0, #8]
  BX LR
.endfunc
`, "f", nil)
	offs := map[int64]expr.Type{}
	for _, fo := range sum.Fields {
		if name, _ := fo.Base.SymName(); name == "arg0" {
			offs[fo.Off] = offs[fo.Off].Join(fo.Ty)
		}
	}
	if len(offs) != 3 {
		t.Fatalf("fields = %+v", sum.Fields)
	}
	if offs[4] != expr.TypeChar {
		t.Errorf("field +4 type = %s, want char", offs[4])
	}
}

func TestFunctionPointerStoreObserved(t *testing.T) {
	p, bin := build(t, `
.arch arm
.func register_handler
  MOV R4, =h ; placeholder, replaced below
  BX LR
.endfunc
.func handler
  BX LR
.endfunc
.data h "x"
`)
	_ = p
	_ = bin
	// Function addresses cannot be written with =sym (that is rodata);
	// craft the store with the real function address via an immediate.
	hAddr := int64(0)
	p2, bin2 := build(t, `
.arch arm
.func handler
  BX LR
.endfunc
.func register_handler
  MOV R4, #0x10000
  STR R4, [R0, #12]
  BX LR
.endfunc
`)
	hAddr = int64(p2.ByName["handler"].Addr)
	if hAddr != 0x10000 {
		t.Fatalf("layout assumption broken: handler at %#x", hAddr)
	}
	sum := Analyze(p2.ByName["register_handler"], bin2, nil, Options{})
	var found bool
	for _, fo := range sum.Fields {
		if fo.FnTarget == "handler" && fo.Off == 12 && fo.Ty == expr.TypeFuncPtr {
			found = true
		}
	}
	if !found {
		t.Fatalf("function-pointer field not observed: %+v", sum.Fields)
	}
}

func TestIndirectCallRecorded(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func dispatch
  LDR R9, [R0, #8]
  BLX R9
  BX LR
.endfunc
`, "dispatch", nil)
	if len(sum.Calls) != 1 {
		t.Fatalf("calls = %+v", sum.Calls)
	}
	c := sum.Calls[0]
	if c.Kind != cfg.CallIndirect {
		t.Fatalf("kind = %v", c.Kind)
	}
	want := expr.Deref(expr.Add(expr.Arg(0), 8)).Key()
	if c.FnPtr.Key() != want {
		t.Fatalf("fnptr = %s, want %s", c.FnPtr, want)
	}
}

func TestUndefUseRecorded(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  LDR R4, [R0, #0x4C]
  BX LR
.endfunc
`, "f", nil)
	if len(sum.UndefUses) != 1 {
		t.Fatalf("undef uses = %v", sum.UndefUses)
	}
	want := expr.Deref(expr.Add(expr.Arg(0), 0x4C)).Key()
	if sum.UndefUses[0].Key() != want {
		t.Fatalf("use = %s, want %s", sum.UndefUses[0], want)
	}
	// Loads from locals previously stored are not undefined uses.
	sum2 := analyze(t, `
.arch arm
.func f
  MOV R4, #7
  STR R4, [SP, #-8]
  LDR R5, [SP, #-8]
  BX LR
.endfunc
`, "f", nil)
	if len(sum2.UndefUses) != 0 {
		t.Fatalf("locals flagged as undef uses: %v", sum2.UndefUses)
	}
}

func TestMemoryForwarding(t *testing.T) {
	// A store followed by a load from the same address forwards the value.
	sum := analyze(t, `
.arch arm
.func f
  MOV R4, #42
  STR R4, [R0, #16]
  LDR R5, [R0, #16]
  STR R5, [SP, #-4]
  BX LR
.endfunc
`, "f", nil)
	want := expr.Deref(expr.Add(expr.Sym(expr.StackSym), -4)).Key()
	defs := sum.FindDefs(want)
	if len(defs) != 1 {
		t.Fatalf("defs = %v", sum.SortedDefKeys())
	}
	if v, ok := defs[0].U.ConstVal(); !ok || v != 42 {
		t.Fatalf("forwarded value = %s, want 42", defs[0].U)
	}
}

func TestReturnValues(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  CMP R0, #0
  BEQ zero
  MOV R0, #1
  BX LR
zero:
  MOV R0, #2
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Rets) != 2 {
		t.Fatalf("rets = %v", sum.Rets)
	}
}

func TestStateCapTruncation(t *testing.T) {
	// A function with many sequential branches explodes paths; the cap
	// must stop exploration and mark truncation.
	var sb strings.Builder
	sb.WriteString(".arch arm\n.func f\n")
	for i := 0; i < 12; i++ {
		sb.WriteString("  CMP R0, #1\n  BEQ l")
		sb.WriteString(string(rune('a' + i)))
		sb.WriteString("\nl")
		sb.WriteString(string(rune('a' + i)))
		sb.WriteString(":\n  MOV R4, #1\n")
	}
	sb.WriteString("  BX LR\n.endfunc\n")
	p, bin := build(t, sb.String())
	sum := Analyze(p.ByName["f"], bin, nil, Options{MaxStatesPerFunc: 20})
	if !sum.Truncated {
		t.Fatal("expected truncation")
	}
	if sum.StatesExplored > 20 {
		t.Fatalf("explored %d states past cap", sum.StatesExplored)
	}
}

func TestResolveAndResolveDeep(t *testing.T) {
	var captured *CallContext
	oracle := oracleFunc(func(ctx *CallContext) CallEffect {
		captured = ctx
		if ctx.Callee == "recv" {
			return CallEffect{Handled: true, MemDefs: []MemDef{
				{Addr: ctx.Args[1], Val: expr.Sym(expr.TaintName("recv", uint64(ctx.Site)))},
			}}
		}
		return CallEffect{}
	})
	analyze(t, `
.arch arm
.import recv
.import use
.func f
  MOV R4, R0
  MOV R1, R4
  MOV R2, #64
  BL recv
  MOV R1, R4
  BL use
  BX LR
.endfunc
`, "f", oracle)
	if captured == nil || captured.Callee != "use" {
		t.Fatalf("oracle not called for use: %+v", captured)
	}
	// arg1 of use is the buffer pointer (arg0); its pointee is tainted.
	got := captured.Resolve(captured.Args[1])
	if !got.ContainsTaint() {
		t.Fatalf("Resolve(%s) = %s, want taint", captured.Args[1], got)
	}
	deep := captured.ResolveDeep(expr.Deref(expr.Arg(0)))
	if !deep.ContainsTaint() {
		t.Fatalf("ResolveDeep = %s, want taint", deep)
	}
}

type oracleFunc func(*CallContext) CallEffect

func (f oracleFunc) Call(ctx *CallContext) CallEffect { return f(ctx) }

// TestSharedSuccessorsDoNotAlias pins clone-on-pop: every successor of a
// block starts from its parent's state, even though the earlier ones
// copy it only when popped and the last one takes it over. Each arm
// reads a register (R4 = 1) and a memory cell ([arg0+4] = 0x11) set
// before the branch, stores them to its own slots, then overwrites both.
// Any arm that saw an earlier arm's writes stores 2 or 0x22 instead.
func TestSharedSuccessorsDoNotAlias(t *testing.T) {
	slots := map[string][2]int64{"a": {0x10, 0x14}, "b": {0x20, 0x24}, "c": {0x30, 0x34}}
	arm := func(label string) string {
		return label + `:
  STR R4, [R0, #` + itoa(slots[label][0]) + `]
  LDR R6, [R0, #4]
  STR R6, [R0, #` + itoa(slots[label][1]) + `]
  MOV R4, #2
  MOV R5, #0x22
  STR R5, [R0, #4]
  BX LR
`
	}
	arms := arm("a") + arm("b") + arm("c")
	prologue := `
.arch arm
.func f
  MOV R4, #1
  MOV R5, #0x11
  STR R5, [R0, #4]
`
	check := func(t *testing.T, sum *Summary, labels ...string) {
		t.Helper()
		for _, l := range labels {
			for i, want := range []int64{1, 0x11} {
				d := expr.Deref(expr.Add(expr.Arg(0), slots[l][i])).Key()
				defs := sum.FindDefs(d)
				if len(defs) != 1 || defs[0].U.Key() != expr.Const(want).Key() {
					t.Errorf("arm %s: %s defined as %v, want only %d", l, d, defs, want)
				}
			}
		}
	}

	t.Run("two-way", func(t *testing.T) {
		// Taken (b) is explored first; the fall-through (a) owns the state.
		sum := analyze(t, prologue+"  CMP R1, #0\n  BEQ b\n"+arms+".endfunc\n", "f", nil)
		check(t, sum, "a", "b")
	})

	t.Run("three-way", func(t *testing.T) {
		p, bin := build(t, prologue+"  B a\n"+arms+".endfunc\n")
		f := p.ByName["f"]
		if len(f.Blocks) != 4 {
			t.Fatalf("got %d blocks, want the entry and 3 arms", len(f.Blocks))
		}
		// Widen the entry's single edge to a three-way fan-out: a is
		// explored first, then b, and c owns the parent's state.
		f.Entry.Succs = f.Blocks[1:4]
		sum := Analyze(f, bin, nil, Options{})
		check(t, sum, "a", "b", "c")
	})
}
