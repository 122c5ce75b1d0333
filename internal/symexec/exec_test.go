package symexec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
)

// TestExecEveryOpcode runs a one-block function per opcode under both
// encodings and pins the summary, the calls an oracle sees and the trace
// each produces. The bodies name argument registers {a0}..{a3} and the
// return register {ret}, so both flavors must render the same: a dropped
// opcode case, a swapped operator or a misread operand field changes the
// rendering.
func TestExecEveryOpcode(t *testing.T) {
	tests := []struct {
		name, body, want string
	}{
		{"MOV reg", "MOV {ret}, {a1}",
			"rets: arg1\ntrace: {ret} = arg1"},
		{"MOV imm", "MOV {ret}, #0x2A",
			"rets: 42\ntrace: {ret} = 42"},
		{"ADD reg", "ADD {ret}, {a1}, {a2}",
			"rets: (arg1+arg2)\ntrace: {ret} = (arg1+arg2)"},
		{"ADD imm", "ADD {ret}, {a1}, #0x10",
			"rets: (arg1+16)\ntrace: {ret} = (arg1+16)"},
		{"SUB reg", "SUB {ret}, {a1}, {a2}",
			"rets: (arg1-arg2)\ntrace: {ret} = (arg1-arg2)"},
		{"SUB imm", "SUB {ret}, {a1}, #0x10",
			"rets: (arg1+-16)\ntrace: {ret} = (arg1+-16)"},
		{"MUL reg", "MUL {ret}, {a1}, {a2}",
			"rets: (arg1*arg2)\ntrace: {ret} = (arg1*arg2)"},
		{"MUL imm", "MUL {ret}, {a1}, #0x10",
			"rets: (arg1*16)\ntrace: {ret} = (arg1*16)"},
		{"AND reg", "AND {ret}, {a1}, {a2}",
			"rets: (arg1&arg2)\ntrace: {ret} = (arg1&arg2)"},
		{"AND imm", "AND {ret}, {a1}, #0x10",
			"rets: (arg1&16)\ntrace: {ret} = (arg1&16)"},
		{"ORR reg", "ORR {ret}, {a1}, {a2}",
			"rets: (arg1|arg2)\ntrace: {ret} = (arg1|arg2)"},
		{"ORR imm", "ORR {ret}, {a1}, #0x10",
			"rets: (arg1|16)\ntrace: {ret} = (arg1|16)"},
		{"EOR reg", "EOR {ret}, {a1}, {a2}",
			"rets: (arg1^arg2)\ntrace: {ret} = (arg1^arg2)"},
		{"EOR imm", "EOR {ret}, {a1}, #0x10",
			"rets: (arg1^16)\ntrace: {ret} = (arg1^16)"},
		{"LSL reg", "LSL {ret}, {a1}, {a2}",
			"rets: (arg1<<arg2)\ntrace: {ret} = (arg1<<arg2)"},
		{"LSL imm", "LSL {ret}, {a1}, #0x3",
			"rets: (arg1<<3)\ntrace: {ret} = (arg1<<3)"},
		{"LSR reg", "LSR {ret}, {a1}, {a2}",
			"rets: (arg1>>arg2)\ntrace: {ret} = (arg1>>arg2)"},
		{"LSR imm", "LSR {ret}, {a1}, #0x3",
			"rets: (arg1>>3)\ntrace: {ret} = (arg1>>3)"},
		{"CMP reg", "CMP {a1}, {a2}",
			"rets: arg0\ntrace: flags = cmp(arg1, arg2)"},
		{"CMP imm", "CMP {a1}, #8",
			"rets: arg0\ntypes: arg1:int\ntrace: flags = cmp(arg1, 8)"},
		{"LDR", "LDR {ret}, [{a1}, #0x10]",
			"rets: deref((arg1+16))\nfields: arg1+16:unknown\ntypes: arg1:void*\ntrace: {ret} = deref((arg1+16))"},
		{"LDRB", "LDRB {ret}, [{a1}, #0x10]",
			"rets: deref((arg1+16))\nfields: arg1+16:char\ntypes: arg1:void* deref((arg1+16)):char\ntrace: {ret} = deref((arg1+16))"},
		{"STR", "STR {a1}, [{a0}, #8]",
			"rets: arg0\ndefs: deref((arg0+8))=arg1/4\nfields: arg0+8:unknown\ntypes: arg0:void*\ntrace: deref((arg0+8)) = arg1"},
		{"STRB", "STRB {a1}, [{a0}, #8]",
			"rets: arg0\ndefs: deref((arg0+8))=arg1/1\nfields: arg0+8:char\ntypes: arg0:void*\ntrace: deref((arg0+8)) = arg1"},
		{"STR function address", "MOV {a2}, &handler\n  STR {a2}, [{a0}, #12]",
			"rets: arg0\ndefs: deref((arg0+12))=65536/4\nfields: arg0+12:func*:handler\ntypes: 65536:func* arg0:void*\ntrace: {a2} = 65536; deref((arg0+12)) = 65536"},
		{"BL", "BL g",
			"rets: ret_g_10018\ncalls: g args=[arg0 arg1 arg2 arg3]\ntrace: call g, {ret} = ret_g_10018"},
		{"BLX", "BLX {a1}",
			"rets: ret_indirect_10018\ncalls: indirect args=[arg0 arg1 arg2 arg3]\ndispatches: 10018 fnptr=arg1\ntrace: call indirect, {ret} = ret_indirect_10018"},
		{"NOP", "NOP",
			"rets: arg0"},
	}
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchMIPS} {
		conv := arch.Conv()
		regs := strings.NewReplacer(
			"{a0}", conv.ArgRegs[0].Name(), "{a1}", conv.ArgRegs[1].Name(),
			"{a2}", conv.ArgRegs[2].Name(), "{a3}", conv.ArgRegs[3].Name(),
			"{ret}", conv.RetReg.Name())
		// Return arg0 unless the body overwrites the return register, so
		// every function has one flavor-independent return value.
		prologue := "MOV " + conv.RetReg.Name() + ", " + conv.ArgRegs[0].Name()
		for _, tt := range tests {
			t.Run(arch.String()+"/"+tt.name, func(t *testing.T) {
				src := ".arch " + strings.ToLower(arch.String()) + `
.func handler
  BX LR
.endfunc
.func g
  BX LR
.endfunc
.func f
  ` + prologue + `
  ` + regs.Replace(tt.body) + `
  BX LR
.endfunc
`
				p, bin := build(t, src)
				f := p.ByName["f"]
				if len(f.Blocks) != 1 {
					t.Fatalf("f has %d blocks, want 1", len(f.Blocks))
				}
				var trace []string
				var calls callLog
				sum := Analyze(f, bin, &calls, Options{Trace: func(_ uint32, line string) {
					trace = append(trace, line)
				}})
				got := describeExec(sum, calls, trace[1:]) // drop the prologue's line
				if want := regs.Replace(tt.want); got != want {
					t.Errorf("summary:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// describeExec renders the parts of a summary one instruction can change
// and the calls the oracle saw, one line per non-empty part.
func describeExec(sum *Summary, calls callLog, trace []string) string {
	var lines []string
	add := func(label string, items []string) {
		if len(items) > 0 {
			lines = append(lines, label+": "+strings.Join(items, " "))
		}
	}
	var rets, defs, callees, dispatches, conds, fields, types []string
	for _, r := range sum.Rets {
		rets = append(rets, r.Key())
	}
	for _, dp := range sum.DefPairs {
		defs = append(defs, fmt.Sprintf("%s=%s/%d", dp.D.Key(), dp.U.Key(), dp.Size))
	}
	for _, c := range calls {
		callees = append(callees, fmt.Sprintf("%s args=%v", c.Callee, exprKeys(c.Args)))
	}
	for _, d := range sum.Dispatches {
		dispatches = append(dispatches, fmt.Sprintf("%x fnptr=%s", d.Addr, d.FnPtr.Key()))
	}
	for _, c := range sum.Constraints {
		conds = append(conds, fmt.Sprintf("%s %s %s", c.L.Key(), c.Cond, c.R.Key()))
	}
	for _, fo := range sum.Fields {
		s := fmt.Sprintf("%s+%d:%s", fo.Base.Key(), fo.Off, fo.Ty)
		if fo.FnTarget != "" {
			s += ":" + fo.FnTarget
		}
		fields = append(fields, s)
	}
	for k, ty := range sum.Types {
		if ty != expr.TypeUnknown {
			types = append(types, k+":"+ty.String())
		}
	}
	sort.Strings(types)
	add("rets", rets)
	add("defs", defs)
	add("calls", callees)
	add("dispatches", dispatches)
	add("constraints", conds)
	add("fields", fields)
	add("types", types)
	if len(trace) > 0 {
		lines = append(lines, "trace: "+strings.Join(trace, "; "))
	}
	return strings.Join(lines, "\n")
}

func exprKeys(es []*expr.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Key()
	}
	return out
}
