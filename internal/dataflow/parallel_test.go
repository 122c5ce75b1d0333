package dataflow

import (
	"fmt"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/expr"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
)

// Parallel phase-1 analysis must produce identical results to the
// sequential run: same findings, same resolutions, same summary counts.
func TestParallelPhase1Deterministic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		bin, err := asm.Assemble("t", structSimSrc)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Resolutions) != 1 || res.Resolutions[0].Callee != "handler" {
			t.Fatalf("workers=%d: resolutions = %+v", workers, res.Resolutions)
		}
		if findVuln(res, "strcpy", "recv") == nil {
			t.Fatalf("workers=%d: vulnerability missing", workers)
		}
	}
}

// fingerprint renders everything that must be bit-identical across worker
// counts: every finding (order included) plus the scalar counters.
func fingerprint(res *Result) string {
	out := fmt.Sprintf("funcs=%d defpairs=%d truncated=%d findings=%d\n",
		res.FunctionsAnalyzed, res.DefPairCount, res.Truncated, len(res.Findings))
	for _, f := range res.Findings {
		out += f.String() + "\n"
	}
	return out
}

// The bottom-up SCC-DAG scheduler must be deterministic: analyzing a
// generated study binary with 1, 4, and 8 workers yields identical
// findings (order included), DefPairCount, and Truncated counts.
func TestBottomUpSchedulerDeterministic(t *testing.T) {
	spec, ok := corpus.SpecByProduct("DIR-645")
	if !ok {
		t.Fatal("DIR-645 spec missing")
	}
	bin, _, err := corpus.BuildBinary(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 4, 8} {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel.Components == 0 || res.Parallel.CriticalPath == 0 {
			t.Fatalf("workers=%d: parallel stats not recorded: %+v", workers, res.Parallel)
		}
		if got := res.Parallel.Workers; workers <= res.Parallel.Components && got != workers {
			t.Fatalf("workers=%d: scheduler reports %d workers", workers, got)
		}
		got := fingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: result diverges from workers=1:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
	}
}

// mutualRecursionSrc is one two-function component: even(cmd, n) runs
// system(cmd) and then odd(cmd, n-1), odd calls even, and main passes
// getenv's result to odd. Functions of a component run in name order, so
// odd carries even's pending sink only because even ended earlier in the
// same component.
const mutualRecursionSrc = `
.arch arm
.import getenv
.import system
.data k "K"

.func even
  MOV R4, R0
  MOV R5, R1
  BL system
  CMP R5, #0
  BEQ done
  MOV R0, R4
  SUB R1, R5, #1
  BL odd
done:
  BX LR
.endfunc

.func odd
  CMP R1, #0
  BEQ done
  SUB R1, R1, #1
  BL even
done:
  BX LR
.endfunc

.func main
  MOV R0, =k
  BL getenv
  MOV R1, #5
  BL odd
  BX LR
.endfunc
`

// A function is published to the rest of its component as soon as it
// ends: main's finding exists only because odd imported the pending sink
// of even, which ran before it in the same component. It must read the
// same at 1 and 8 workers, with the summary store off, cold and warm.
func TestComponentSeesItsEndedFunctions(t *testing.T) {
	bin, err := asm.Assemble("t", mutualRecursionSrc)
	if err != nil {
		t.Fatal(err)
	}
	const want = "[VULNERABLE] getenv -> system in even@0x10010 (command-injection) path=even@0x10010(system) <- odd@0x10060(call even) <- main@0x10088(call even)"
	for _, workers := range []int{1, 8} {
		store, err := sumstore.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []struct {
			name  string
			store *sumstore.Store
		}{{"off", nil}, {"cold", store}, {"warm", store}} {
			prog, err := cfg.Build(bin)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Analyze(prog, Options{Parallelism: workers, SummaryStore: pass.store})
			if err != nil {
				t.Fatal(err)
			}
			vulns := res.VulnerablePaths()
			if len(vulns) != 1 || vulns[0].String() != want {
				t.Errorf("workers=%d store %s: vulnerable paths = %v, want [%s]", workers, pass.name, vulns, want)
			}
		}
	}
}

// Regression: when every substituted return expression of a summarized
// callee resolves to nil, the callee's return value must not vanish —
// the opaque per-callsite ret symbol is kept so downstream taint flow
// through the return register survives.
func TestCalleeRetNilFallback(t *testing.T) {
	nilSub := func(*expr.Expr) *expr.Expr { return nil }
	want := expr.RetName("callee", 0x40)

	single := &symexec.Summary{Rets: []*expr.Expr{tab.Sym("arg0")}}
	ret := calleeRet(tab, single, nilSub, "callee", 0x40)
	if ret == nil {
		t.Fatal("single nil-resolving return dropped")
	}
	if name, ok := ret.SymName(); !ok || name != want {
		t.Fatalf("fallback = %v, want sym %s", ret, want)
	}

	multi := &symexec.Summary{Rets: []*expr.Expr{tab.Sym("arg0"), tab.Sym("arg1"), tab.Sym("arg2")}}
	ret = calleeRet(tab, multi, nilSub, "callee", 0x40)
	if ret == nil {
		t.Fatal("multi nil-resolving returns dropped")
	}
	if name, ok := ret.SymName(); !ok || name != want {
		t.Fatalf("fallback = %v, want sym %s", ret, want)
	}

	// A substitution that survives is kept untouched.
	identity := func(e *expr.Expr) *expr.Expr { return e }
	ret = calleeRet(tab, single, identity, "callee", 0x40)
	if name, ok := ret.SymName(); !ok || name != "arg0" {
		t.Fatalf("surviving return rewritten: %v", ret)
	}

	// No recorded returns keeps nil so the engine assigns the fresh symbol.
	if got := calleeRet(tab, &symexec.Summary{}, identity, "callee", 0x40); got != nil {
		t.Fatalf("empty return set should stay nil, got %v", got)
	}

	// Oversized return sets (> 4) keep the opaque symbol too.
	var rets []*expr.Expr
	for i := 0; i < 6; i++ {
		rets = append(rets, tab.Sym(fmt.Sprintf("arg%d", i)))
	}
	ret = calleeRet(tab, &symexec.Summary{Rets: rets}, identity, "callee", 0x40)
	if name, ok := ret.SymName(); !ok || name != want {
		t.Fatalf("oversized return set = %v, want sym %s", ret, want)
	}
}
