package structsim

import (
	"math"
	"testing"

	"dtaint/internal/asm"
	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/symexec"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

func layoutFrom(fn string, fields []symexec.FieldObs) *Layout {
	sum := &symexec.Summary{Func: fn, Fields: fields}
	ls := BuildLayouts(sum)
	if len(ls) != 1 {
		return nil
	}
	return ls[0]
}

func obs(base *expr.Expr, off int64, ty expr.Type) symexec.FieldObs {
	return symexec.FieldObs{Base: base, Off: off, Ty: ty}
}

func TestBuildLayoutsGroupsByRoot(t *testing.T) {
	a0 := tab.Arg(0)
	a1 := tab.Arg(1)
	sum := &symexec.Summary{Func: "f", Fields: []symexec.FieldObs{
		obs(a0, 0, expr.TypePtr),
		obs(a0, 4, expr.TypeInt),
		obs(tab.Deref(tab.Add(a0, 0)), 8, expr.TypeChar), // nested base, same root
		obs(a1, 0, expr.TypeInt),
	}}
	ls := BuildLayouts(sum)
	if len(ls) != 2 {
		t.Fatalf("layouts = %d, want 2", len(ls))
	}
	// Sorted by root: arg0 first.
	if ls[0].Root != "arg0" || ls[1].Root != "arg1" {
		t.Fatalf("roots = %s, %s", ls[0].Root, ls[1].Root)
	}
	if len(ls[0].Fields) != 2 { // ROOT and deref(ROOT+0)
		t.Fatalf("arg0 layout bases = %d", len(ls[0].Fields))
	}
	if ls[0].NumFields() != 3 {
		t.Fatalf("arg0 fields = %d", ls[0].NumFields())
	}
}

func TestCanonicalAlignmentAcrossFunctions(t *testing.T) {
	// The same structure accessed through arg0 in f and arg2 in g must
	// produce identical similarity as if roots matched.
	mk := func(root *expr.Expr, fn string) *Layout {
		return layoutFrom(fn, []symexec.FieldObs{
			obs(root, 0, expr.TypePtr),
			obs(root, 4, expr.TypeInt),
			obs(root, 8, expr.TypeCharPtr),
		})
	}
	a := mk(tab.Arg(0), "f")
	b := mk(tab.Arg(2), "g")
	sigma, ok := Similarity(a, b)
	if !ok || math.Abs(sigma-1.0) > 1e-9 {
		t.Fatalf("σ = %v, ok=%v; want 1.0", sigma, ok)
	}
}

func TestSimilarityPartialOverlap(t *testing.T) {
	a := layoutFrom("f", []symexec.FieldObs{
		obs(tab.Arg(0), 0, expr.TypeInt),
		obs(tab.Arg(0), 4, expr.TypeInt),
	})
	b := layoutFrom("g", []symexec.FieldObs{
		obs(tab.Arg(0), 0, expr.TypeInt),
		obs(tab.Arg(0), 4, expr.TypeInt),
		obs(tab.Arg(0), 8, expr.TypeInt),
		obs(tab.Arg(0), 12, expr.TypeInt),
	})
	sigma, ok := Similarity(a, b)
	if !ok {
		t.Fatal("comparable layouts rejected")
	}
	if math.Abs(sigma-0.5) > 1e-9 { // |∩|=2, |∪|=4
		t.Fatalf("σ = %v, want 0.5", sigma)
	}
	// σ is symmetric.
	s2, ok2 := Similarity(b, a)
	if !ok2 || math.Abs(sigma-s2) > 1e-9 {
		t.Fatalf("σ not symmetric: %v vs %v", sigma, s2)
	}
}

func TestTypeConflictRejects(t *testing.T) {
	a := layoutFrom("f", []symexec.FieldObs{obs(tab.Arg(0), 4, expr.TypeInt)})
	b := layoutFrom("g", []symexec.FieldObs{obs(tab.Arg(0), 4, expr.TypeCharPtr)})
	if _, ok := Similarity(a, b); ok {
		t.Fatal("conflicting field types must make layouts incomparable")
	}
}

func TestBaseSubsetRule(t *testing.T) {
	// Layout a has bases {ROOT}, b has {ROOT, deref(ROOT+0)} -> a ⊆ b: ok.
	a := layoutFrom("f", []symexec.FieldObs{obs(tab.Arg(0), 0, expr.TypePtr)})
	b := layoutFrom("g", []symexec.FieldObs{
		obs(tab.Arg(0), 0, expr.TypePtr),
		obs(tab.Deref(tab.Add(tab.Arg(0), 0)), 4, expr.TypeInt),
	})
	if _, ok := Similarity(a, b); !ok {
		t.Fatal("subset base sets must be comparable")
	}
	// Disjoint-ish base sets: {ROOT, deref(ROOT+0)} vs {ROOT, deref(ROOT+8)}.
	c := layoutFrom("h", []symexec.FieldObs{
		obs(tab.Arg(0), 8, expr.TypePtr),
		obs(tab.Deref(tab.Add(tab.Arg(0), 8)), 4, expr.TypeInt),
	})
	if _, ok := Similarity(b, c); ok {
		t.Fatal("non-nested base sets must be incomparable")
	}
}

func TestSimilarityDegenerate(t *testing.T) {
	if _, ok := Similarity(nil, nil); ok {
		t.Fatal("nil layouts comparable")
	}
	empty := &Layout{Fields: map[string]map[int64]expr.Type{}}
	a := layoutFrom("f", []symexec.FieldObs{obs(tab.Arg(0), 0, expr.TypeInt)})
	if _, ok := Similarity(a, empty); ok {
		t.Fatal("empty layout comparable")
	}
}

// End-to-end: a dispatcher calls through a struct field; a registrar
// function stores handler addresses into a struct with the same layout.
func TestResolveIndirectEndToEnd(t *testing.T) {
	src := `
.arch arm
.func handler
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
  LDR R5, [R0, #0]
  LDR R6, [R0, #4]
  LDR R9, [R0, #12]
  BLX R9
  BX LR
.endfunc
`
	bin, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Funcs[0].Name != "handler" || bin.Funcs[0].Addr != 0x10000 {
		t.Fatalf("layout assumption broken: %+v", bin.Funcs[0])
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]*symexec.Summary)
	for _, fn := range prog.Funcs {
		sums[fn.Name] = symexec.Analyze(fn, bin, nil, symexec.Options{})
	}
	res := ResolveIndirect(sums)
	if len(res) != 1 {
		t.Fatalf("resolutions = %+v", res)
	}
	if res[0].Caller != "dispatch" || res[0].Callee != "handler" {
		t.Fatalf("resolution = %+v", res[0])
	}
	if res[0].Score <= 0 {
		t.Fatalf("score = %v", res[0].Score)
	}
}

// When two registrars use different struct shapes, the dispatcher binds
// to the most similar one.
func TestResolvePicksHighestSimilarity(t *testing.T) {
	src := `
.arch arm
.func good_handler
  BX LR
.endfunc
.func bad_handler
  BX LR
.endfunc
.func register_good
  MOV R4, #0x10000
  STR R4, [R0, #12]
  MOV R5, #0
  STR R5, [R0, #0]
  STR R5, [R0, #4]
  STR R5, [R0, #8]
  BX LR
.endfunc
.func register_bad
  MOV R4, #0x10008
  STR R4, [R0, #12]
  MOV R5, #0
  STR R5, [R0, #32]
  STR R5, [R0, #48]
  BX LR
.endfunc
.func dispatch
  LDR R5, [R0, #0]
  LDR R6, [R0, #4]
  LDR R7, [R0, #8]
  LDR R9, [R0, #12]
  BLX R9
  BX LR
.endfunc
`
	bin, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := bin.FuncByName("good_handler"); got.Addr != 0x10000 {
		t.Fatalf("good_handler at %#x", got.Addr)
	}
	if got, _ := bin.FuncByName("bad_handler"); got.Addr != 0x10008 {
		t.Fatalf("bad_handler at %#x", got.Addr)
	}
	sums := make(map[string]*symexec.Summary)
	for _, fn := range prog.Funcs {
		sums[fn.Name] = symexec.Analyze(fn, bin, nil, symexec.Options{})
	}
	res := ResolveIndirect(sums)
	if len(res) != 1 {
		t.Fatalf("resolutions = %+v", res)
	}
	if res[0].Callee != "good_handler" {
		t.Fatalf("bound to %s, want good_handler (higher σ)", res[0].Callee)
	}
}

func TestResolveNoCandidates(t *testing.T) {
	src := `
.arch arm
.func dispatch
  LDR R9, [R0, #12]
  BLX R9
  BX LR
.endfunc
`
	bin, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]*symexec.Summary{
		"dispatch": symexec.Analyze(prog.ByName["dispatch"], bin, nil, symexec.Options{}),
	}
	if res := ResolveIndirect(sums); len(res) != 0 {
		t.Fatalf("phantom resolution: %+v", res)
	}
}

// TestResolveTieIsDeterministic: two registrars with identical six-base
// layouts register h1 and h2 at the dispatched field. Their σ against the
// site is one exact value only when the per-base fractions are summed in
// a fixed order; summed in map order the last bits vary from call to
// call and h2 sometimes wins. Equal scores go to the smaller name, so
// every resolution must bind h1.
func TestResolveTieIsDeterministic(t *testing.T) {
	a0 := tab.Arg(0)
	bases := []*expr.Expr{a0}
	for k := int64(1); k < 6; k++ {
		bases = append(bases, tab.Deref(tab.Add(a0, 4*k)))
	}
	// The site observes one field per base, a registrar 3, 5, ..., 13:
	// the fractions 1/3, 1/5, ..., 1/13 round differently per order.
	fields := func(n int) []symexec.FieldObs {
		var out []symexec.FieldObs
		for i, b := range bases {
			for off := 0; off < 1+(2*i+2)*n; off++ {
				out = append(out, obs(b, int64(16+4*off), expr.TypeInt))
			}
		}
		return out
	}
	fnptr := func(target string) symexec.FieldObs {
		return symexec.FieldObs{Base: a0, Off: 12, Ty: expr.TypePtr, FnTarget: target}
	}
	site := append(fields(0), obs(a0, 12, expr.TypePtr))
	sums := map[string]*symexec.Summary{
		"dispatch": {Func: "dispatch", Fields: site,
			Dispatches: []symexec.Dispatch{{Addr: 0x40, FnPtr: tab.Deref(tab.Add(a0, 12))}}},
		"reg1": {Func: "reg1", Fields: append(fields(1), fnptr("h1"))},
		"reg2": {Func: "reg2", Fields: append(fields(1), fnptr("h2"))},
	}
	for i := 0; i < 200; i++ {
		res := ResolveIndirect(sums)
		if len(res) != 1 || res[0].Callee != "h1" {
			t.Fatalf("run %d: resolutions %+v, want one binding to h1", i, res)
		}
	}
}
