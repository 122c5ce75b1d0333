package dataflow

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	bin, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func findVuln(res *Result, sink, source string) *taint.Finding {
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Sink == sink && f.Source == source && !f.Sanitized {
			return f
		}
	}
	return nil
}

// The paper's running example (Figures 5-7): woo taints a buffer reachable
// through a structure field; foo loads the field and passes it to memcpy.
// The data path crosses the function boundary through deref(arg0+0x4C).
const fooWooSrc = `
.arch arm
.import recv
.import memcpy

.func foo
  SUB SP, SP, #0x118
  MOV R5, R0
  MOV R4, R1
  MOV R0, R5
  MOV R1, R4
  BL woo
  MOV R2, R0
  LDR R1, [R5, #0x4C]
  ADD R0, SP, #0x18
  BL memcpy
  BX LR
.endfunc

.func woo
  LDR R5, [R1, #0x24]
  STR R5, [R0, #0x4C]
  MOV R2, #0x200
  MOV R1, R5
  BL recv
  BX LR
.endfunc
`

func TestPaperRunningExample(t *testing.T) {
	res := run(t, fooWooSrc, Options{})
	f := findVuln(res, "memcpy", "recv")
	if f == nil {
		for _, g := range res.Findings {
			t.Logf("finding: %s", g.String())
		}
		t.Fatal("recv -> memcpy path not found")
	}
	if f.Class != taint.ClassBufferOverflow {
		t.Fatalf("class = %s", f.Class)
	}
	if f.SinkFunc != "foo" {
		t.Fatalf("sink in %s, want foo", f.SinkFunc)
	}
}

func TestSanitizedPathNotReported(t *testing.T) {
	// Same flow, but the copy length is bounded before memcpy:
	// the source buffer value is length-checked via strlen.
	src := `
.arch arm
.import recv
.import memcpy
.import strlen

.func foo
  SUB SP, SP, #0x118
  MOV R5, R0
  MOV R4, R1
  MOV R0, R5
  MOV R1, R4
  BL woo
  LDR R1, [R5, #0x4C]
  MOV R6, R1
  MOV R0, R6
  BL strlen
  CMP R0, #0x40
  BGE out
  MOV R1, R6
  ADD R0, SP, #0x18
  MOV R2, #0x20
  BL memcpy
out:
  BX LR
.endfunc

.func woo
  LDR R5, [R1, #0x24]
  STR R5, [R0, #0x4C]
  MOV R2, #0x200
  MOV R1, R5
  BL recv
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	if f := findVuln(res, "memcpy", "recv"); f != nil {
		t.Fatalf("sanitized path reported: %s", f.String())
	}
	// The path must still be discovered, just marked sanitized.
	var sanitized bool
	for _, f := range res.Findings {
		if f.Sink == "memcpy" && f.Source == "recv" && f.Sanitized {
			sanitized = true
		}
	}
	if !sanitized {
		t.Fatal("path lost entirely rather than sanitized")
	}
}

func TestCommandInjectionGetenvSystem(t *testing.T) {
	// CVE-2015-2051 analog: getenv value flows into system() unchecked.
	src := `
.arch arm
.import getenv
.import system
.data soapaction "HTTP_SOAPACTION"

.func handler
  MOV R0, =soapaction
  BL getenv
  BL system
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	f := findVuln(res, "system", "getenv")
	if f == nil {
		t.Fatal("getenv -> system injection not found")
	}
	if f.Class != taint.ClassCommandInjection {
		t.Fatalf("class = %s", f.Class)
	}
}

func TestCommandInjectionSanitizedBySemicolonScan(t *testing.T) {
	// The same flow with a byte-wise ';' check is not a vulnerability.
	src := `
.arch arm
.import getenv
.import system
.data name "CMD"

.func handler
  MOV R0, =name
  BL getenv
  MOV R5, R0
loop:
  LDRB R4, [R5, #0]
  CMP R4, #0x3B
  BEQ reject
  ADD R5, R5, #1
  CMP R4, #0
  BNE loop
  MOV R0, R5
  BL system
reject:
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	if f := findVuln(res, "system", "getenv"); f != nil {
		t.Fatalf("semicolon-checked command reported: %s", f.String())
	}
}

func TestCommandInjectionSanitizedByStrchr(t *testing.T) {
	src := `
.arch arm
.import getenv
.import system
.import strchr
.data name "CMD"

.func handler
  MOV R0, =name
  BL getenv
  MOV R5, R0
  MOV R0, R5
  MOV R1, #0x3B
  BL strchr
  CMP R0, #0
  BNE reject
  MOV R0, R5
  BL system
reject:
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	if f := findVuln(res, "system", "getenv"); f != nil {
		t.Fatalf("strchr-checked command reported: %s", f.String())
	}
}

func TestPendingSinkClimbsTwoLevels(t *testing.T) {
	// strcpy sink in a leaf on its argument; taint introduced two callers
	// above. The pending sink must climb through mid into top.
	src := `
.arch arm
.import getenv
.import strcpy
.data key "PASSWORD"

.func leafsink
  SUB SP, SP, #0x40
  MOV R1, R0
  ADD R0, SP, #8
  BL strcpy
  BX LR
.endfunc

.func mid
  BL leafsink
  BX LR
.endfunc

.func top
  MOV R0, =key
  BL getenv
  BL mid
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	f := findVuln(res, "strcpy", "getenv")
	if f == nil {
		for _, g := range res.Findings {
			t.Logf("finding: %s", g.String())
		}
		t.Fatal("two-level pending sink not finalized")
	}
	if f.SinkFunc != "leafsink" {
		t.Fatalf("sink func = %s", f.SinkFunc)
	}
	if len(f.Path) != 3 {
		t.Fatalf("path = %v, want 3 steps", f.Path)
	}
}

func TestPendingSinkWithCalleeSideCheck(t *testing.T) {
	// The leaf checks strlen before copying; the climbed path must stay
	// sanitized even though the taint arrives from the caller.
	src := `
.arch arm
.import getenv
.import strcpy
.import strlen
.data key "COOKIE"

.func leafsafe
  SUB SP, SP, #0x40
  MOV R5, R0
  BL strlen
  CMP R0, #0x20
  BGE out
  MOV R1, R5
  ADD R0, SP, #8
  BL strcpy
out:
  BX LR
.endfunc

.func top
  MOV R0, =key
  BL getenv
  BL leafsafe
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	if f := findVuln(res, "strcpy", "getenv"); f != nil {
		t.Fatalf("callee-checked path reported: %s", f.String())
	}
}

func TestLoopCopySink(t *testing.T) {
	// read() fills a buffer; a loop copies it byte-by-byte to a stack
	// buffer with a 2048-iteration bound — the Hikvision loop-copy bug.
	src := `
.arch arm
.import read

.func vulnloop
  SUB SP, SP, #0x30
  MOV R1, R0
  MOV R5, R0
  MOV R0, #0
  MOV R2, #0x800
  BL read
  MOV R2, #0
  ADD R6, SP, #4
copy:
  LDRB R3, [R5, #0]
  STRB R3, [R6, #0]
  ADD R5, R5, #1
  ADD R6, R6, #1
  ADD R2, R2, #1
  CMP R2, #0x800
  BLT copy
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	f := findVuln(res, "loop", "read")
	if f == nil {
		for _, g := range res.Findings {
			t.Logf("finding: %s", g.String())
		}
		t.Fatal("loop-copy sink not found")
	}

	// A small fixed-bound loop copy is not reported.
	safe := `
.arch arm
.import read

.func okloop
  SUB SP, SP, #0x30
  MOV R1, R0
  MOV R5, R0
  MOV R0, #0
  MOV R2, #0x10
  BL read
  MOV R2, #0
  ADD R6, SP, #4
copy:
  LDRB R3, [R5, #0]
  STRB R3, [R6, #0]
  ADD R5, R5, #1
  ADD R6, R6, #1
  ADD R2, R2, #1
  CMP R2, #0x10
  BLT copy
  BX LR
.endfunc
`
	res2 := run(t, safe, Options{})
	if f := findVuln(res2, "loop", "read"); f != nil {
		t.Fatalf("bounded loop copy reported: %s", f.String())
	}
}

// Alias ablation: the tainted buffer is a callee stack local whose pointer
// is stored into the caller's structure. Only Algorithm 1 exposes the
// flow as deref(deref(arg0+4)).
const aliasSrc = `
.arch arm
.import recv
.import strcpy

.func fill
  SUB SP, SP, #0x40
  ADD R5, SP, #0
  STR R5, [R0, #4]
  MOV R1, R5
  MOV R0, #0
  MOV R2, #0x40
  BL recv
  BX LR
.endfunc

.func use
  SUB SP, SP, #0x80
  ADD R6, SP, #0x20
  MOV R0, R6
  BL fill
  LDR R1, [R6, #4]
  ADD R0, SP, #0
  BL strcpy
  BX LR
.endfunc
`

func TestAliasRequiredForDetection(t *testing.T) {
	res := run(t, aliasSrc, Options{})
	if findVuln(res, "strcpy", "recv") == nil {
		for _, g := range res.Findings {
			t.Logf("finding: %s", g.String())
		}
		t.Fatal("alias-dependent path not found with aliasing enabled")
	}
	ablated := run(t, aliasSrc, Options{DisableAlias: true})
	if f := findVuln(ablated, "strcpy", "recv"); f != nil {
		t.Fatalf("path found without Algorithm 1 — ablation is vacuous: %s", f.String())
	}
}

// Structsim ablation: taint crosses an indirect call that only layout
// similarity can resolve.
const structSimSrc = `
.arch arm
.import recv
.import strcpy

.func handler
  SUB SP, SP, #0x40
  LDR R1, [R0, #0]
  ADD R0, SP, #8
  BL strcpy
  BX LR
.endfunc

.func register
  MOV R4, #0x10000
  STR R4, [R0, #12]
  MOV R5, #0
  STR R5, [R0, #0]
  STR R5, [R0, #4]
  BX LR
.endfunc

.func dispatch
  MOV R6, R0
  LDR R1, [R6, #0]
  LDR R2, [R6, #4]
  MOV R5, R1
  MOV R1, R5
  MOV R0, #0
  MOV R2, #0x100
  BL recv
  MOV R0, R6
  LDR R9, [R6, #12]
  BLX R9
  BX LR
.endfunc
`

func TestStructSimilarityRequiredForDetection(t *testing.T) {
	bin, err := asm.Assemble("t", structSimSrc)
	if err != nil {
		t.Fatal(err)
	}
	if fn, _ := bin.FuncByName("handler"); fn.Addr != 0x10000 {
		t.Fatalf("layout assumption broken: handler at %#x", fn.Addr)
	}
	res := run(t, structSimSrc, Options{})
	if len(res.Resolutions) != 1 || res.Resolutions[0].Callee != "handler" {
		t.Fatalf("resolutions = %+v", res.Resolutions)
	}
	if findVuln(res, "strcpy", "recv") == nil {
		for _, g := range res.Findings {
			t.Logf("finding: %s", g.String())
		}
		t.Fatal("indirect-call path not found with structsim enabled")
	}
	ablated := run(t, structSimSrc, Options{DisableStructSim: true})
	if f := findVuln(ablated, "strcpy", "recv"); f != nil {
		t.Fatalf("path found without structsim — ablation is vacuous: %s", f.String())
	}
}

// SSE ablation: the ops-struct dispatch idiom. register stores the ops
// table into obj (deref(obj+8) = ops) and the handler address into the
// table through the ops argument itself ([ops+4]); dispatch loads the
// function pointer through obj (deref(deref(obj+8)+4)). The registration
// is observed under root arg1 while the callsite's path is rooted at
// arg0, so layout similarity cannot align their base keys — only the
// alias fact deref(arg0+8) = arg1 connects the two spellings, which is
// exactly what the SSE equivalence classes propagate.
const sseSrc = `
.arch arm
.import recv
.import strcpy

.func handler
  SUB SP, SP, #0x40
  LDR R1, [R0, #0]
  ADD R0, SP, #8
  BL strcpy
  BX LR
.endfunc

.func register
  STR R1, [R0, #8]
  MOV R4, &handler
  STR R4, [R1, #4]
  MOV R5, #0
  STR R5, [R0, #0]
  BX LR
.endfunc

.func dispatch
  MOV R6, R0
  LDR R1, [R6, #0]
  MOV R0, #0
  MOV R2, #0x100
  BL recv
  MOV R0, R6
  LDR R2, [R6, #8]
  LDR R9, [R2, #4]
  BLX R9
  BX LR
.endfunc
`

func TestSSERequiredForDetection(t *testing.T) {
	res := run(t, sseSrc, Options{})
	if len(res.Resolutions) != 1 || res.Resolutions[0].Callee != "handler" {
		t.Fatalf("resolutions = %+v", res.Resolutions)
	}
	if res.Resolve.BySSE != 1 || res.Resolve.ByStructSim != 0 {
		t.Fatalf("resolve stats = %+v", res.Resolve)
	}
	if findVuln(res, "strcpy", "recv") == nil {
		for _, g := range res.Findings {
			t.Logf("finding: %s", g.String())
		}
		t.Fatal("ops-struct path not found with SSE enabled")
	}
	ablated := run(t, sseSrc, Options{DisableSSE: true})
	if len(ablated.Resolutions) != 0 {
		t.Fatalf("structsim alone resolved the ops-struct site — ablation is vacuous: %+v",
			ablated.Resolutions)
	}
	if f := findVuln(ablated, "strcpy", "recv"); f != nil {
		t.Fatalf("path found without SSE — ablation is vacuous: %s", f.String())
	}
}

// Struct-sim fallback: a dispatch table indexed by a second argument
// (tbl[i].fn, the base arg0+arg1). SSE interns only paths whose bases
// are symbols or loads, so neither the registration nor the callsite
// has an SSE spelling and class matching binds nothing. Layout
// similarity still aligns the two canonical bases (ROOT+arg1) and
// resolves the site to handler.
const structSimFallbackSrc = `
.arch arm
.import recv
.import strcpy

.func handler
  SUB SP, SP, #0x40
  LDR R1, [R0, #0]
  ADD R0, SP, #8
  BL strcpy
  BX LR
.endfunc

.func register
  ADD R2, R0, R1
  MOV R4, &handler
  STR R4, [R2, #4]
  BX LR
.endfunc

.func dispatch
  ADD R2, R0, R1
  LDR R9, [R2, #4]
  BLX R9
  BX LR
.endfunc
`

func TestStructSimFallbackBindsWhatSSECannot(t *testing.T) {
	res := run(t, structSimFallbackSrc, Options{})
	if res.Resolve.BySSE != 0 || res.Resolve.ByStructSim != 1 {
		t.Fatalf("resolve stats = %+v", res.Resolve)
	}
	if len(res.Resolutions) != 1 || res.Resolutions[0].Caller != "dispatch" ||
		res.Resolutions[0].Callee != "handler" {
		t.Fatalf("resolutions = %+v", res.Resolutions)
	}
}

// Layout tie-break: reg_a and reg_b both register a handler at
// [arg0+4], so SSE path identity matches the dispatch to both. reg_b
// also touches +8 and +12, which dispatch reads too: its layout scores
// 3/4 against the site's, reg_a's only 1/4, and the call binds to
// handler_b, the vulnerable one. With the score ignored the tie would go
// to handler_a by name and the finding would be lost. %a0% and the like
// are the architecture's argument and scratch registers.
const tieBreakSrc = `
.import recv
.import strcpy

.func handler_a
  BX LR
.endfunc

.func handler_b
  SUB SP, SP, #0x40
  LDR %a1%, [%a0%, #0]
  ADD %a0%, SP, #8
  BL strcpy
  BX LR
.endfunc

.func reg_a
  MOV %t0%, &handler_a
  STR %t0%, [%a0%, #4]
  BX LR
.endfunc

.func reg_b
  MOV %t0%, &handler_b
  STR %t0%, [%a0%, #4]
  MOV %t1%, #0
  STR %t1%, [%a0%, #8]
  STR %t1%, [%a0%, #12]
  BX LR
.endfunc

.func dispatch
  MOV %t0%, %a0%
  LDR %a1%, [%t0%, #0]
  MOV %a0%, #0
  MOV %a2%, #0x100
  BL recv
  LDR %t1%, [%t0%, #8]
  LDR %t2%, [%t0%, #12]
  MOV %a0%, %t0%
  LDR %t3%, [%t0%, #4]
  BLX %t3%
  BX LR
.endfunc
`

// tieBreakFor spells tieBreakSrc for one architecture, "arm" or "mips".
func tieBreakFor(arch string) string { return forArch(arch, tieBreakSrc) }

// forArch spells src for one architecture, "arm" or "mips": %a0% and the
// like become its argument and scratch registers.
func forArch(arch, src string) string {
	regs := strings.NewReplacer("%a0%", "R0", "%a1%", "R1", "%a2%", "R2",
		"%t0%", "R4", "%t1%", "R5", "%t2%", "R6", "%t3%", "R7")
	if arch == "mips" {
		regs = strings.NewReplacer("%a0%", "R4", "%a1%", "R5", "%a2%", "R6",
			"%t0%", "R8", "%t1%", "R9", "%t2%", "R10", "%t3%", "R11")
	}
	return ".arch " + arch + "\n" + regs.Replace(src)
}

func TestLayoutTieBreakPicksVulnerableHandler(t *testing.T) {
	for _, arch := range []string{"arm", "mips"} {
		t.Run(arch, func(t *testing.T) {
			res := run(t, tieBreakFor(arch), Options{})
			if len(res.Resolutions) != 1 || res.Resolutions[0].Callee != "handler_b" ||
				res.Resolutions[0].Score != 0.75 {
				t.Fatalf("resolutions = %+v, want dispatch -> handler_b at 0.75", res.Resolutions)
			}
			if res.Resolve.BySSE != 1 {
				t.Fatalf("resolve stats = %+v", res.Resolve)
			}
			if findVuln(res, "strcpy", "recv") == nil {
				for _, g := range res.Findings {
					t.Logf("finding: %s", g.String())
				}
				t.Fatal("recv -> strcpy through handler_b not found")
			}
		})
	}
}

// Arithmetic-built function pointer: register builds handler's address
// from immediates none of which names a function, and stores it at
// [arg0+4]; dispatch calls through [arg0+4] after recv fills
// deref(arg0), which handler copies with strcpy into a stack buffer.
// The engine folds constants (expr.Table.Bin) and reads back what a path
// stored, so phase 1 must run on register for the call to bind. Each
// arithPtrShapes entry is one body of register: %hi% + %lo% and
// %or1% | %or2% are handler's address, and %hi2% + %lo% names no
// function.
const arithPtrSrc = `
.import recv
.import strcpy
.import strcat

.func pad
  MOV %a0%, %a0%
  MOV %a0%, %a0%
  BX LR
.endfunc

.func handler
  SUB SP, SP, #0x40
  LDR %a1%, [%a0%, #0]
  ADD %a0%, SP, #8
  BL strcpy
  BX LR
.endfunc

.func register
%register%
  BX LR
.endfunc

.func dispatch
  MOV %t0%, %a0%
  LDR %a1%, [%t0%, #0]
  MOV %a0%, #0
  MOV %a2%, #0x100
  BL recv
  MOV %a0%, %t0%
  LDR %t3%, [%t0%, #4]
  BLX %t3%
  BX LR
.endfunc
`

var arithPtrShapes = []struct{ name, body string }{
	{"fold", `
  MOV %t0%, #%hi%
  ADD %t0%, %t0%, #%lo%
  STR %t0%, [%a0%, #4]`},
	// The sum is built from a stack slot the function wrote.
	{"spill", `
  MOV %t0%, #%hi%
  STR %t0%, [SP, #8]
  LDR %t1%, [SP, #8]
  ADD %t1%, %t1%, #%lo%
  STR %t1%, [%a0%, #4]`},
	// Only the first branch in address order builds handler's address.
	{"join", `
  CMP %a1%, #0
  BEQ reg_other
  MOV %t0%, #%hi%
  B reg_both
reg_other:
  MOV %t0%, #%hi2%
reg_both:
  ADD %t0%, %t0%, #%lo%
  STR %t0%, [%a0%, #4]`},
	// strcat's model writes the OR of both buffers' contents.
	{"call", `
  MOV %t2%, %a0%
  MOV %t0%, #%or1%
  STR %t0%, [SP, #8]
  MOV %t0%, #%or2%
  STR %t0%, [SP, #16]
  ADD %a0%, SP, #8
  ADD %a1%, SP, #16
  BL strcat
  LDR %t1%, [SP, #8]
  STR %t1%, [%t2%, #4]`},
}

// arithPtrBinary assembles arithPtrSrc for arch with register's body
// body, and checks that no immediate names a function.
func arithPtrBinary(tb testing.TB, arch, body string) *image.Binary {
	tb.Helper()
	spell := func(v ...uint32) string {
		var pairs []string
		for i, name := range []string{"%hi%", "%hi2%", "%lo%", "%or1%", "%or2%"} {
			pairs = append(pairs, name, fmt.Sprintf("0x%x", v[i]))
		}
		return strings.NewReplacer(pairs...).
			Replace(forArch(arch, strings.Replace(arithPtrSrc, "%register%", body, 1)))
	}
	// handler's address does not depend on the immediates: only pad,
	// which gives it more than one set bit, comes before it.
	probe, err := asm.Assemble("t", spell(0, 0, 0, 0, 0))
	if err != nil {
		tb.Fatal(err)
	}
	sym, ok := probe.FuncByName("handler")
	if !ok {
		tb.Fatal("no handler")
	}
	or2 := sym.Addr & -sym.Addr // the lowest set bit
	v := []uint32{sym.Addr - 0x10, sym.Addr + 0x1000, 0x10, sym.Addr &^ or2, or2}
	for _, x := range append(v, v[1]+v[2]) {
		if sym, ok := probe.FuncAt(x); ok {
			tb.Fatalf("0x%x names %s", x, sym.Name)
		}
	}
	bin, err := asm.Assemble("t", spell(v...))
	if err != nil {
		tb.Fatal(err)
	}
	return bin
}

func TestArithmeticFunctionPointerResolves(t *testing.T) {
	for _, arch := range []string{"arm", "mips"} {
		for _, shape := range arithPtrShapes {
			t.Run(arch+"/"+shape.name, func(t *testing.T) {
				prog, err := cfg.Build(arithPtrBinary(t, arch, shape.body))
				if err != nil {
					t.Fatal(err)
				}
				res, err := Analyze(prog, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Resolutions) != 1 || res.Resolutions[0].Caller != "dispatch" ||
					res.Resolutions[0].Callee != "handler" {
					t.Fatalf("resolutions = %+v, want dispatch -> handler", res.Resolutions)
				}
				if findVuln(res, "strcpy", "recv") == nil {
					t.Fatal("recv -> strcpy through handler not found")
				}
				all, allStats := allPhase1Resolutions(prog, Options{})
				if !reflect.DeepEqual(res.Resolutions, all) || res.Resolve != allStats {
					t.Fatalf("resolutions %+v %+v, from a phase 1 over every function %+v %+v",
						res.Resolutions, res.Resolve, all, allStats)
				}
			})
		}
	}
}

func TestHeapIdentityPerCallsiteChain(t *testing.T) {
	// Listing 1: x = B(); y = B() must be distinct heap objects.
	src := `
.arch arm
.import malloc

.func B
  MOV R0, #4
  BL malloc
  BX LR
.endfunc

.func A
  BL B
  MOV R4, R0
  BL B
  MOV R5, R0
  STR R4, [SP, #-4]
  STR R5, [SP, #-8]
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	sumA := res.Summaries["A"]
	if sumA == nil {
		t.Fatal("A not summarized")
	}
	// A stores what each call to B returned into its own local.
	var keys []string
	for _, off := range []int64{-4, -8} {
		defs := sumA.FindDefs(tab.Deref(tab.Add(tab.Sym(expr.StackSym), off)).Key())
		if len(defs) != 1 {
			t.Fatalf("defs of the local at SP%d = %v (all: %v)", off, defs, sumA.SortedDefKeys())
		}
		name, ok := defs[0].U.SymName()
		if !ok || !expr.IsHeapName(name) {
			t.Fatalf("local at SP%d holds %s, want a heap identity", off, defs[0].U)
		}
		keys = append(keys, name)
	}
	if keys[0] == keys[1] {
		t.Fatalf("heap identities collide across callsites: %s", keys[0])
	}
}

func TestRecursionTerminates(t *testing.T) {
	src := `
.arch arm
.import getenv
.import system
.data k "K"

.func even
  CMP R0, #0
  BEQ done
  SUB R0, R0, #1
  BL odd
done:
  BX LR
.endfunc

.func odd
  CMP R0, #0
  BEQ done
  SUB R0, R0, #1
  BL even
done:
  BX LR
.endfunc

.func main
  MOV R0, #5
  BL even
  MOV R0, =k
  BL getenv
  BL system
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	if res.FunctionsAnalyzed != 3 {
		t.Fatalf("analyzed %d functions", res.FunctionsAnalyzed)
	}
	if findVuln(res, "system", "getenv") == nil {
		t.Fatal("vulnerability in recursive binary missed")
	}
}

func TestVulnerablePathsVsVulnerabilities(t *testing.T) {
	// Two sources reaching the same sink: two paths, one vulnerability.
	src := `
.arch arm
.import getenv
.import system
.data a "A"
.data b "B"

.func handler
  CMP R4, #1
  BEQ other
  MOV R0, =a
  BL getenv
  B go
other:
  MOV R0, =b
  BL getenv
go:
  BL system
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	paths := res.VulnerablePaths()
	vulns := res.Vulnerabilities()
	if len(paths) < 2 {
		t.Fatalf("paths = %d, want >= 2", len(paths))
	}
	if len(vulns) != 1 {
		for _, v := range vulns {
			t.Logf("vuln: %s", v.String())
		}
		t.Fatalf("vulns = %d, want 1", len(vulns))
	}
}

func TestFilterRestrictsAnalysis(t *testing.T) {
	res := run(t, fooWooSrc, Options{Filter: func(name string) bool { return name == "woo" }})
	if res.FunctionsAnalyzed != 1 {
		t.Fatalf("analyzed %d, want 1", res.FunctionsAnalyzed)
	}
	if findVuln(res, "memcpy", "recv") != nil {
		t.Fatal("foo's sink reported while filtered out")
	}
}

func TestSinkCount(t *testing.T) {
	res := run(t, fooWooSrc, Options{})
	if res.SinkCount != 1 { // one memcpy callsite
		t.Fatalf("sink count = %d", res.SinkCount)
	}
}

func TestEmptyProgram(t *testing.T) {
	if _, err := Analyze(nil, Options{}); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("want ErrNoProgram, got %v", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	res := run(t, fooWooSrc, Options{})
	if res.FunctionsAnalyzed != 2 || res.DefPairCount == 0 {
		t.Fatalf("stats = %+v", res)
	}
	if res.SSATime <= 0 || res.DDGTime <= 0 {
		t.Fatalf("times not measured: %+v", res)
	}
}

// Taint survives a callee with multiple return paths: one branch returns
// attacker data, another a constant.
func TestMultiReturnTaintPropagates(t *testing.T) {
	src := `
.arch arm
.import getenv
.import system
.data k "Q"
.data fallback "none"

.func pick
  CMP R1, #0
  BEQ dflt
  MOV R0, =k
  BL getenv
  BX LR
dflt:
  MOV R0, =fallback
  BX LR
.endfunc

.func handler
  BL pick
  BL system
  BX LR
.endfunc
`
	res := run(t, src, Options{})
	if findVuln(res, "system", "getenv") == nil {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f.String())
		}
		t.Fatal("taint lost through multi-return callee")
	}
}

// A check in the caller before invoking a vulnerable helper sanitizes the
// climbed path — but only when the bound fits the helper's buffer.
func TestCallerSideCheckOnPendingSink(t *testing.T) {
	mk := func(bound string) string {
		return `
.arch arm
.import getenv
.import strcpy
.import strlen
.data k "Q"

.func store40
  SUB SP, SP, #0x40
  MOV R1, R0
  ADD R0, SP, #0
  BL strcpy
  BX LR
.endfunc

.func handler
  MOV R0, =k
  BL getenv
  MOV R4, R0
  MOV R0, R4
  BL strlen
  CMP R0, ` + bound + `
  BGE out
  MOV R0, R4
  BL store40
out:
  BX LR
.endfunc
`
	}
	fitting := run(t, mk("#0x20"), Options{})
	if f := findVuln(fitting, "strcpy", "getenv"); f != nil {
		t.Fatalf("caller-side fitting check ignored: %s", f.String())
	}
	oversized := run(t, mk("#0x200"), Options{})
	if findVuln(oversized, "strcpy", "getenv") == nil {
		for _, f := range oversized.Findings {
			t.Logf("finding: %s", f.String())
		}
		t.Fatal("oversized caller-side check treated as sanitizing")
	}
}

// TestSubstitutorInstantiatesOnce pins the per-callsite memo: a callee
// fact is instantiated once per callsite, and a repeat of it (the same
// node: one key is one node of the analysis's table) gets the first
// result back without allocating.
func TestSubstitutorInstantiatesOnce(t *testing.T) {
	bin, err := asm.Assemble("t", `
.arch arm
.func f
  MOV R0, R1
  BL g
  BX LR
.endfunc
.func g
  BX LR
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	oracle := symexec.OracleFunc(func(ctx *symexec.CallContext) symexec.CallEffect {
		called = true
		tab := ctx.Table()
		sub := substitutor(ctx, map[*expr.Expr]*expr.Expr{})
		fact := tab.Deref(tab.Add(tab.Arg(0), 0x4C))
		first := sub(fact)
		if want := tab.Deref(tab.Add(tab.Arg(1), 0x4C)); first != want {
			t.Fatalf("sub(%s) = %s (%p), want the table's node %p", fact, first, first, want)
		}
		repeat := tab.Deref(tab.Add(tab.Arg(0), 0x4C))
		if repeat != fact {
			t.Fatal("one expression built twice is two nodes")
		}
		var second *expr.Expr
		if n := testing.AllocsPerRun(10, func() { second = sub(repeat) }); n != 0 {
			t.Errorf("repeat instantiation allocates %v times, want 0", n)
		}
		if second != first {
			t.Errorf("repeat instantiation built %p, want the first result %p", second, first)
		}
		return symexec.CallEffect{}
	})
	symexec.Analyze(prog.ByName["f"], bin, oracle, symexec.Options{})
	if !called {
		t.Fatal("oracle not called at the callsite")
	}
}
