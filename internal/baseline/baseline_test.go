package baseline

import (
	"errors"
	"strings"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
)

func buildProg(t *testing.T, src string) *cfg.Program {
	t.Helper()
	bin, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const vulnSrc = `
.arch arm
.import getenv
.import system
.data k "CMD"

.func helper
  BL system
  BX LR
.endfunc

.func main
  MOV R0, =k
  BL getenv
  BL helper
  BX LR
.endfunc
`

func TestBaselineFindsVulnerability(t *testing.T) {
	prog := buildProg(t, vulnSrc)
	res, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, f := range res.Findings {
		if f.Sink == "system" && f.Source == "getenv" && !f.Sanitized {
			found = true
		}
	}
	if !found {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f.String())
		}
		t.Fatal("top-down baseline missed the vulnerability")
	}
}

func TestCalleeReanalyzedPerCallsite(t *testing.T) {
	// Three callsites to the same leaf: the baseline must analyze the leaf
	// at least 3×Iterations times, plus the callers.
	src := `
.arch arm
.func leaf
  MOV R0, #1
  BX LR
.endfunc
.func a
  BL leaf
  BL leaf
  BX LR
.endfunc
.func b
  BL leaf
  BX LR
.endfunc
`
	prog := buildProg(t, src)
	res, err := Analyze(prog, Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Roots a and b: a analyzes leaf at 2 sites, b at 1 site; with 2
	// iterations per context and 2 iterations per root, leaf runs
	// (2+2)*... — at minimum far more often than once.
	if res.Analyses < 8 {
		t.Fatalf("analyses = %d; callees not re-analyzed per callsite", res.Analyses)
	}
}

func TestBaselineSlowerThanDTaint(t *testing.T) {
	// A call chain with fan-out: bottom-up analyzes each function once;
	// top-down pays the product of callsites. Compare analysis counts,
	// not wall-clock (robust under CI noise).
	var sb strings.Builder
	sb.WriteString(".arch arm\n.func l0\n  MOV R0, #1\n  BX LR\n.endfunc\n")
	for i := 1; i <= 5; i++ {
		sb.WriteString(".func l")
		sb.WriteByte(byte('0' + i))
		sb.WriteString("\n")
		// Each level calls the previous level twice.
		sb.WriteString("  BL l")
		sb.WriteByte(byte('0' + i - 1))
		sb.WriteString("\n  BL l")
		sb.WriteByte(byte('0' + i - 1))
		sb.WriteString("\n  BX LR\n.endfunc\n")
	}
	prog := buildProg(t, sb.String())
	res, err := Analyze(prog, Options{Iterations: 1, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	dtRes, err := dataflow.Analyze(prog, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analyses <= 2*dtRes.FunctionsAnalyzed {
		t.Fatalf("baseline analyses = %d vs DTaint %d functions; expected exponential blowup",
			res.Analyses, dtRes.FunctionsAnalyzed)
	}
}

func TestDepthCap(t *testing.T) {
	src := `
.arch arm
.func a
  BL b
  BX LR
.endfunc
.func b
  BL a
  BX LR
.endfunc
`
	prog := buildProg(t, src)
	res, err := Analyze(prog, Options{MaxDepth: 4, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mutual recursion terminates via depth cap.
	if res.Analyses == 0 || res.Analyses > 64 {
		t.Fatalf("analyses = %d", res.Analyses)
	}
}

func TestAnalysisCap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".arch arm\n.func l0\n  MOV R0, #1\n  BX LR\n.endfunc\n")
	for i := 1; i <= 7; i++ {
		sb.WriteString(".func l")
		sb.WriteByte(byte('0' + i))
		sb.WriteString("\n  BL l")
		sb.WriteByte(byte('0' + i - 1))
		sb.WriteString("\n  BL l")
		sb.WriteByte(byte('0' + i - 1))
		sb.WriteString("\n  BL l")
		sb.WriteByte(byte('0' + i - 1))
		sb.WriteString("\n  BX LR\n.endfunc\n")
	}
	prog := buildProg(t, sb.String())
	res, err := Analyze(prog, Options{MaxAnalyses: 50, Iterations: 1, MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatalf("cap not reported; analyses = %d", res.Analyses)
	}
	if res.Analyses > 60 {
		t.Fatalf("cap ineffective: %d analyses", res.Analyses)
	}
}

func TestEmptyProgram(t *testing.T) {
	if _, err := Analyze(nil, Options{}); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("want ErrNoProgram, got %v", err)
	}
}

func TestFilter(t *testing.T) {
	prog := buildProg(t, vulnSrc)
	res, err := Analyze(prog, Options{Filter: func(n string) bool { return n == "helper" }})
	if err != nil {
		t.Fatal(err)
	}
	// Only helper analyzed; its system() call sees an argument expression,
	// not taint, so no unsanitized finding with a source.
	for _, f := range res.Findings {
		if f.Source == "getenv" {
			t.Fatalf("filtered function contributed taint: %s", f.String())
		}
	}
	if res.Analyses == 0 {
		t.Fatal("nothing analyzed")
	}
}

func TestPhasesTimed(t *testing.T) {
	prog := buildProg(t, vulnSrc)
	res, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSATime <= 0 || res.DDGTime <= 0 {
		t.Fatalf("phases not timed: %+v", res)
	}
}
