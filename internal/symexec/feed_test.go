package symexec

import (
	"fmt"
	"strings"
	"testing"

	"dtaint/internal/expr"
)

// TestMayFeedResolution runs the selection on bodies of reg that store
// handler's address, built from immediates none of which names a
// function, and on bodies that store no function's address. It must
// select reg exactly when the engine records a FnTarget.
func TestMayFeedResolution(t *testing.T) {
	const src = `
.arch arm
.func handler
  BX LR
.endfunc

.func reg
%body%
  BX LR
.endfunc
`
	cases := []struct {
		name, body string
		want       bool
	}{
		{"fold", `
  MOV R4, #%hi%
  ADD R4, R4, #%lo%
  STR R4, [R0, #4]`, true},
		{"spill and reload", `
  MOV R4, #%hi%
  STR R4, [SP, #8]
  LDR R5, [SP, #8]
  ADD R5, R5, #%lo%
  STR R5, [R0, #4]`, true},
		{"join", `
  CMP R1, #0
  BEQ other
  MOV R4, #%hi%
  B both
other:
  MOV R4, #%none%
both:
  ADD R4, R4, #%lo%
  STR R4, [R0, #4]`, true},
		{"x-x", `
  LDR R5, [R0, #0]
  SUB R6, R5, R5
  ADD R6, R6, #%hi%
  ADD R6, R6, #%lo%
  STR R6, [R0, #4]`, true},
		{"x*0", `
  LDR R5, [R0, #0]
  MOV R7, #0
  MUL R6, R5, R7
  ADD R6, R6, #%hi%
  ADD R6, R6, #%lo%
  STR R6, [R0, #4]`, true},
		{"no function", `
  MOV R4, #%none%
  ADD R4, R4, #%lo%
  STR R4, [R0, #4]`, false},
		{"byte store", `
  MOV R4, #%hi%
  ADD R4, R4, #%lo%
  STRB R4, [R0, #4]`, false},
		{"x-y", `
  LDR R5, [R0, #0]
  LDR R6, [R0, #8]
  SUB R6, R5, R6
  STR R6, [R0, #4]`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spell := func(hi, none, lo uint32) string {
				return strings.NewReplacer("%hi%", fmt.Sprint(hi), "%none%", fmt.Sprint(none), "%lo%", fmt.Sprint(lo)).
					Replace(strings.Replace(src, "%body%", c.body, 1))
			}
			probe, _ := build(t, spell(0, 0, 0))
			handler := probe.ByName["handler"].Addr
			hi, none, lo := handler-0x10, handler+0x1000, uint32(0x10)
			p, bin := build(t, spell(hi, none, lo))
			for _, v := range []uint32{hi, none, lo, none + lo} {
				if sym, ok := bin.FuncAt(v); ok {
					t.Fatalf("0x%x names %s", v, sym.Name)
				}
			}
			fn := p.ByName["reg"]
			sum := Analyze(fn, bin, nil, Options{Table: new(expr.Table)})
			registers := false
			for _, f := range sum.Fields {
				registers = registers || f.FnTarget == "handler"
			}
			if registers != c.want {
				t.Fatalf("engine registers handler: %v, want %v", registers, c.want)
			}
			if got := MayFeedResolution(fn, bin, new(expr.Table)); got != c.want {
				t.Fatalf("MayFeedResolution = %v, want %v", got, c.want)
			}
		})
	}
}

// TestMayFeedResolutionSelectsDispatch selects a function with an
// indirect callsite and one whose immediate names a function, however
// it uses them.
func TestMayFeedResolutionSelectsDispatch(t *testing.T) {
	p, bin := build(t, `
.arch arm
.func handler
  BX LR
.endfunc

.func dispatch
  LDR R4, [R0, #4]
  BLX R4
  BX LR
.endfunc

.func names
  MOV R4, &handler
  BX LR
.endfunc

.func plain
  MOV R4, #1
  STR R4, [R0, #4]
  BX LR
.endfunc
`)
	for name, want := range map[string]bool{"dispatch": true, "names": true, "plain": false, "handler": false} {
		if got := MayFeedResolution(p.ByName[name], bin, new(expr.Table)); got != want {
			t.Errorf("%s: MayFeedResolution = %v, want %v", name, got, want)
		}
	}
}
