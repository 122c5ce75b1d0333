package symexec

import (
	"strings"
	"testing"

	"dtaint/internal/expr"
)

// Absolute memory addresses are variables in their own right
// (Section III-B: "DTaint directly uses the memory to present variables,
// such as 0x670B0").
func TestAbsoluteAddressVariables(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  MOV R5, #0x670B0
  MOV R4, #42
  STR R4, [R5, #0]
  LDR R6, [R5, #0]
  STR R6, [SP, #-4]
  BX LR
.endfunc
`, "f", nil)
	// The global def is recorded at the constant address.
	want := tab.Deref(tab.Const(0x670B0)).Key()
	defs := sum.FindDefs(want)
	if len(defs) != 1 {
		t.Fatalf("global def missing: %v", sum.SortedDefKeys())
	}
	if v, ok := defs[0].U.ConstVal(); !ok || v != 42 {
		t.Fatalf("global value = %s", defs[0].U)
	}
	// And the load forwards it into the local store.
	local := tab.Deref(tab.Add(tab.Sym(expr.StackSym), -4)).Key()
	lds := sum.FindDefs(local)
	if len(lds) != 1 {
		t.Fatalf("local def missing")
	}
	if v, ok := lds[0].U.ConstVal(); !ok || v != 42 {
		t.Fatalf("forwarded global = %s", lds[0].U)
	}
}

// Calls to unresolved targets still produce unique return symbols and do
// not derail the analysis.
func TestUnknownCalleeHandled(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  LDR R9, [R0, #0]
  BLX R9
  MOV R4, R0
  STR R4, [SP, #-4]
  BX LR
.endfunc
`, "f", nil)
	// The value the call left in R0 is stored to the local.
	defs := sum.FindDefs(tab.Deref(tab.Add(tab.Sym(expr.StackSym), -4)).Key())
	if len(defs) != 1 {
		t.Fatalf("defs = %v", sum.SortedDefKeys())
	}
	name, ok := defs[0].U.SymName()
	if !ok || !expr.IsRetSym(name) {
		t.Fatalf("indirect ret = %s", defs[0].U)
	}
}

// Analysis is deterministic: two runs over the same function produce the
// same definition pairs in the same order.
func TestAnalysisDeterministic(t *testing.T) {
	src := `
.arch mips
.import memcpy
.func f
  SUB SP, SP, #0x40
  CMP R4, #10
  BGE big
  STR R4, [SP, #-4]
  B out
big:
  STR R5, [SP, #-4]
out:
  ADD R4, SP, #8
  MOV R5, R4
  MOV R6, #8
  BL memcpy
  BX LR
.endfunc
`
	a := analyze(t, src, "f", nil)
	b := analyze(t, src, "f", nil)
	ka, kb := a.SortedDefKeys(), b.SortedDefKeys()
	if len(ka) != len(kb) {
		t.Fatalf("defpair counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("defpair %d differs: %s vs %s", i, ka[i], kb[i])
		}
	}
	if a.StatesExplored != b.StatesExplored {
		t.Fatal("state counts differ across runs")
	}
}

// Byte stores are recorded with their size and produce char-typed fields.
func TestByteStoreFieldType(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  MOV R4, #0x3B
  STRB R4, [R0, #5]
  BX LR
.endfunc
`, "f", nil)
	var found bool
	for _, fo := range sum.Fields {
		if name, _ := fo.Base.SymName(); name == "arg0" && fo.Off == 5 && fo.Ty == expr.TypeChar {
			found = true
		}
	}
	if !found {
		t.Fatalf("byte field not observed: %+v", sum.Fields)
	}
	for _, dp := range sum.DefPairs {
		if dp.Size == 1 {
			return
		}
	}
	t.Fatal("byte-sized defpair not recorded")
}

// Conditional branches off an untested flag (no preceding CMP) do not
// record junk constraints.
func TestBranchWithoutCompare(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  BEQ skip
  MOV R4, #1
skip:
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Constraints) != 0 {
		t.Fatalf("constraints = %+v", sum.Constraints)
	}
}

// The return register differs per flavor: MIPS returns in R2.
func TestMIPSReturnRegister(t *testing.T) {
	sum := analyze(t, `
.arch mips
.func f
  MOV R2, #99
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Rets) != 1 {
		t.Fatalf("rets = %v", sum.Rets)
	}
	if v, ok := sum.Rets[0].ConstVal(); !ok || v != 99 {
		t.Fatalf("MIPS ret = %s", sum.Rets[0])
	}
}

// An oracle must not call the Engine that called it: the nested Analyze
// panics with a message naming both functions, and the engine analyzes
// normally afterwards. A fresh engine per nested call, which
// symexec.Analyze builds, is allowed.
func TestEngineRefusesReentry(t *testing.T) {
	p, bin := build(t, `
.arch arm
.func callee
  MOV R0, #7
  BX LR
.endfunc
.func caller
  BL callee
  BX LR
.endfunc
`)
	callee, caller := p.ByName["callee"], p.ByName["caller"]
	var eng Engine
	reenter := oracleFunc(func(ctx *CallContext) CallEffect {
		eng.Analyze(callee, bin, nil, Options{Table: tab})
		return CallEffect{}
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		eng.Analyze(caller, bin, reenter, Options{Table: tab})
		return nil
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "Analyze of callee re-entered while it analyzes caller") {
		t.Fatalf("re-entered Analyze: recovered %v, want a panic naming callee and caller", got)
	}

	nested := oracleFunc(func(ctx *CallContext) CallEffect {
		return CallEffect{Handled: true, Ret: Analyze(callee, bin, nil, Options{Table: tab}).Rets[0]}
	})
	sum := eng.Analyze(caller, bin, nested, Options{Table: tab})
	if len(sum.Rets) != 1 || sum.Rets[0] != tab.Const(7) {
		t.Fatalf("caller after the refused re-entry returns %v, want [7]", sum.Rets)
	}
}
