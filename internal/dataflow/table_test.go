package dataflow

import (
	"fmt"
	"sort"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
)

// TestTableChangesNoSummary: building a binary's expressions through one
// shared expr.Table gives every function the summary that a table of
// its own (a nil Options.Table) gives, compared by key, over a
// screening seed and the study images.
func TestTableChangesNoSummary(t *testing.T) {
	bins := map[string]*image.Binary{}
	cases, err := corpus.ScreeningCorpus(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		bins[c.Name] = c.Binary
	}
	for _, spec := range corpus.StudyImages() {
		bin, _, err := corpus.BuildBinary(spec, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		bins[spec.Product] = bin
	}
	names := make([]string, 0, len(bins))
	for name := range bins {
		names = append(names, name)
	}
	sort.Strings(names)
	functions := 0
	for _, name := range names {
		functions += checkSharedTable(t, name, bins[name])
	}
	t.Logf("%d functions in %d binaries compared", functions, len(names))
}

// checkSharedTable analyzes every function of bin twice, with a nil
// Options.Table and through one table shared by the binary, and fails
// unless both summaries spell alike and neither repeats an entry. It
// returns the number of functions compared.
func checkSharedTable(t *testing.T, name string, bin *image.Binary) int {
	t.Helper()
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Symexec: symexec.Options{LoopOnce: true}}.withVocab()
	shared := base
	shared.Symexec.Table = new(expr.Table)
	plain, interned := newTracker(base, prog.Binary), newTracker(shared, prog.Binary)
	for _, fn := range prog.Funcs {
		plain.BeginFunction(fn.Name)
		interned.BeginFunction(fn.Name)
		own := symexec.Analyze(fn, prog.Binary, plain, base.Symexec)
		got := symexec.Analyze(fn, prog.Binary, interned, shared.Symexec)
		want, gotLines := summaryLines(own), summaryLines(got)
		if len(gotLines) != len(want) {
			t.Fatalf("%s/%s: %d summary lines with the shared table, %d with its own", name, fn.Name, len(gotLines), len(want))
		}
		for i := range want {
			if gotLines[i] != want[i] {
				t.Fatalf("%s/%s: with the shared table %q, with its own %q", name, fn.Name, gotLines[i], want[i])
			}
		}
		if dup := spelledDuplicate(got); dup != "" {
			t.Fatalf("%s/%s: summary repeats %q", name, fn.Name, dup)
		}
	}
	return len(prog.Funcs)
}

// heapChainSrc allocates in mk and passes the object up three call
// levels. Every caller reaches its callsite on two paths, so each level
// re-hashes the same heap symbols at the same site more than once.
const heapChainSrc = `
.arch arm
.import malloc

.func mk
  MOV R4, R0
  MOV R5, R1
  MOV R0, #16
  BL malloc
  STR R0, [R4, #0]
  STR R5, [R0, #4]
  BX LR
.endfunc

.func lvl1
  MOV R6, R0
  CMP R1, #0
  BEQ l1
  MOV R7, #1
l1:
  BL mk
  STR R0, [R6, #8]
  BX LR
.endfunc

.func lvl2
  MOV R6, R0
  CMP R1, #4
  BGE l2
  MOV R7, #2
l2:
  BL lvl1
  STR R0, [R6, #12]
  BX LR
.endfunc

.func lvl3
  MOV R6, R0
  CMP R1, #8
  BLT l3
  MOV R7, #3
l3:
  BL lvl2
  LDR R1, [R6, #0]
  STR R1, [R6, #16]
  BX LR
.endfunc
`

// TestDedupMatchesSpelling: the engine and the rewrites deduplicate by
// node pointer, which is sound only while every expression of an
// analysis is a node of its table. A foreign node — one built in
// another table, or decoded outside it — is a second node for a
// spelling, and would slip past the pointer checks as a second entry.
// So over a study binary, a screening seed and a heap object climbing
// three call levels, at 1 and 8 workers, without a summary store and
// replaying from a warm one, no spelling may have two nodes across an
// analysis's summaries and no summary may repeat a spelled entry; and
// the phase-1 summaries must not depend on the table. A table that
// outlives its analysis would hash-cons too, so each spelling would
// still have one node: the store-less pass of a binary and each pass
// through the store are two analyses, and they may share no node but
// the preallocated small constants.
func TestDedupMatchesSpelling(t *testing.T) {
	spec := corpus.StudyImages()[0]
	study, _, err := corpus.BuildBinary(spec, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	heapChain, err := asm.Assemble("heap-chain", heapChainSrc)
	if err != nil {
		t.Fatal(err)
	}
	bins := []*image.Binary{study, heapChain}
	names := []string{spec.Product, "heap-chain"}
	cases, err := corpus.ScreeningCorpus(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		bins = append(bins, c.Binary)
		names = append(names, c.Name)
	}
	for i, bin := range bins {
		checkSharedTable(t, names[i], bin)
	}
	for _, workers := range []int{1, 8} {
		store, err := sumstore.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, bin := range bins {
			prog, err := cfg.Build(bin)
			if err != nil {
				t.Fatal(err)
			}
			var offNodes map[*expr.Expr]bool
			for _, pass := range []string{"off", "cold", "warm"} {
				opts := Options{Parallelism: workers}
				if pass != "off" {
					opts.SummaryStore = store
				}
				res, err := Analyze(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				if pass == "warm" && res.SumStore.Misses != 0 {
					t.Fatalf("workers=%d %s: warm pass missed the store %d times", workers, names[i], res.SumStore.Misses)
				}
				nodes := map[string]*expr.Expr{}
				for fn, sum := range res.Summaries {
					if dup := spelledDuplicate(sum); dup != "" {
						t.Fatalf("workers=%d %s/%s, store %s: summary repeats %q", workers, names[i], fn, pass, dup)
					}
					if dup := secondNode(sum, nodes); dup != "" {
						t.Fatalf("workers=%d %s/%s, store %s: two nodes spell %q", workers, names[i], fn, pass, dup)
					}
				}
				if pass == "off" {
					offNodes = resultNodes(res)
				} else if n := sharedNode(offNodes, resultNodes(res)); n != "" {
					t.Fatalf("workers=%d %s, store %s: node %s is shared by two analyses", workers, names[i], pass, n)
				}
			}
		}
	}
}

// secondNode records in nodes every expression of s and its
// subexpressions by spelling, and returns a spelling that has two nodes,
// or "" when none has.
func secondNode(s *symexec.Summary, nodes map[string]*expr.Expr) string {
	dup := ""
	for _, e := range summaryExprs(s) {
		eachNode(e, func(n *expr.Expr) bool {
			if m, ok := nodes[n.Key()]; ok {
				if m != n && dup == "" {
					dup = n.Key()
				}
				return false
			}
			nodes[n.Key()] = n
			return true
		})
		if dup != "" {
			return dup
		}
	}
	return ""
}

// resultNodes returns every node of res: the expressions secondNode
// walks in each summary plus each finding's taint and guard, with their
// subexpressions.
func resultNodes(res *Result) map[*expr.Expr]bool {
	nodes := map[*expr.Expr]bool{}
	add := func(n *expr.Expr) bool {
		if nodes[n] {
			return false
		}
		nodes[n] = true
		return true
	}
	for _, sum := range res.Summaries {
		for _, e := range summaryExprs(sum) {
			eachNode(e, add)
		}
	}
	for _, f := range res.Findings {
		eachNode(f.TaintExpr, add)
		eachNode(f.GuardExpr, add)
	}
	return nodes
}

// sharedNode returns the spelling of a node of b that a also holds,
// other than the preallocated small constants every table shares, or ""
// when the two analyses share none.
func sharedNode(a, b map[*expr.Expr]bool) string {
	var shared []string
	for n := range b {
		if !a[n] {
			continue
		}
		if v, ok := n.ConstVal(); ok && new(expr.Table).Const(v) == n {
			continue
		}
		shared = append(shared, n.Key())
	}
	if len(shared) == 0 {
		return ""
	}
	sort.Strings(shared)
	return shared[0]
}

// summaryExprs lists the expressions of s's return values, definition
// pairs, constraints, dispatches, fields and loop stores.
func summaryExprs(s *symexec.Summary) []*expr.Expr {
	var all []*expr.Expr
	all = append(all, s.Rets...)
	for _, dp := range s.DefPairs {
		all = append(all, dp.D, dp.U)
	}
	for _, c := range s.Constraints {
		all = append(all, c.L, c.R)
	}
	for _, d := range s.Dispatches {
		all = append(all, d.FnPtr)
	}
	for _, f := range s.Fields {
		all = append(all, f.Base)
	}
	for _, ls := range s.LoopStores {
		all = append(all, ls.Val)
	}
	return all
}

// eachNode calls visit on e and, while visit returns true, on its
// subexpressions. A nil e visits nothing.
func eachNode(e *expr.Expr, visit func(*expr.Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	if x, ok := e.DerefAddr(); ok {
		eachNode(x, visit)
	} else if _, x, y, ok := e.BinOperands(); ok {
		eachNode(x, visit)
		eachNode(y, visit)
	}
}

// spelledDuplicate returns the first return value, definition pair,
// constraint or field of s that spells like an earlier one, or "" when
// none does.
func spelledDuplicate(s *symexec.Summary) string {
	var lines []string
	for _, r := range s.Rets {
		lines = append(lines, "ret "+r.Key())
	}
	for _, dp := range s.DefPairs {
		lines = append(lines, "def "+dp.D.Key()+" = "+dp.U.Key())
	}
	for _, c := range s.Constraints {
		lines = append(lines, fmt.Sprintf("constraint %s %v %s", c.L.Key(), c.Cond, c.R.Key()))
	}
	for _, f := range s.Fields {
		lines = append(lines, fmt.Sprintf("field %s+%d %v %s", f.Base.Key(), f.Off, f.Ty, f.FnTarget))
	}
	seen := make(map[string]bool, len(lines))
	for _, l := range lines {
		if seen[l] {
			return l
		}
		seen[l] = true
	}
	return ""
}

// summaryLines renders every field of a summary by expression key.
func summaryLines(s *symexec.Summary) []string {
	out := []string{fmt.Sprintf("states=%d blocks=%d truncated=%t", s.StatesExplored, s.BlocksAnalyzed, s.Truncated)}
	for _, c := range s.Constraints {
		out = append(out, fmt.Sprintf("constraint %s %v %s @%x loop=%t", c.L.Key(), c.Cond, c.R.Key(), c.Addr, c.InLoop))
	}
	for _, dp := range s.DefPairs {
		out = append(out, fmt.Sprintf("def %s = %s @%x size=%d", dp.D.Key(), dp.U.Key(), dp.Addr, dp.Size))
	}
	for _, r := range s.Rets {
		out = append(out, "ret "+r.Key())
	}
	for _, d := range s.Dispatches {
		out = append(out, fmt.Sprintf("dispatch @%x fnptr=%s", d.Addr, d.FnPtr.Key()))
	}
	for _, f := range s.Fields {
		out = append(out, fmt.Sprintf("field %s+%d %v %s", f.Base.Key(), f.Off, f.Ty, f.FnTarget))
	}
	for _, ls := range s.LoopStores {
		out = append(out, fmt.Sprintf("loopstore %s @%x", ls.Val.Key(), ls.Addr))
	}
	var keyed []string
	for k, ty := range s.Types {
		keyed = append(keyed, fmt.Sprintf("type %s %v", k, ty))
	}
	for k, iv := range s.Ranges {
		keyed = append(keyed, fmt.Sprintf("range %s %v", k, iv))
	}
	sort.Strings(keyed)
	return append(out, keyed...)
}
