package taint

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

func TestTableIVocabulary(t *testing.T) {
	// The exact Table I sets open the census, in paper order; the
	// vocabulary extensions (NVRAM getters, printf family, file ops)
	// follow, and the structural loop sink closes the sink list.
	wantSources := []string{
		"read", "recv", "recvfrom", "recvmsg", "getenv", "fgets", "websGetVar", "find_var",
		"nvram_get", "nvram_safe_get", "acosNvramConfig_get",
	}
	wantSinks := []string{
		"strcpy", "strncpy", "sprintf", "memcpy", "strcat", "sscanf", "system", "popen",
		"printf", "fprintf", "syslog", "open", "fopen", "unlink",
		"loop",
	}
	if len(Sources) != len(wantSources) {
		t.Fatalf("sources = %v", Sources)
	}
	for i, s := range wantSources {
		if Sources[i] != s {
			t.Fatalf("source %d = %s, want %s", i, Sources[i], s)
		}
	}
	if len(Sinks) != len(wantSinks) {
		t.Fatalf("sinks = %v", Sinks)
	}
	for i, s := range wantSinks {
		if Sinks[i] != s {
			t.Fatalf("sink %d = %s, want %s", i, Sinks[i], s)
		}
	}
}

func TestPrototypesCoverVocabulary(t *testing.T) {
	protos := PrototypesFor(nil)
	for _, s := range Sources {
		if _, ok := protos[s]; !ok {
			t.Errorf("no prototype for source %s", s)
		}
	}
	for _, s := range Sinks {
		if s == "loop" {
			continue
		}
		if _, ok := protos[s]; !ok {
			t.Errorf("no prototype for sink %s", s)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassBufferOverflow.String() != "buffer-overflow" ||
		ClassCommandInjection.String() != "command-injection" {
		t.Fatal("class strings changed")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Class: ClassCommandInjection, Sink: "system", SinkFunc: "h", SinkAddr: 0x10,
		Source: "getenv",
		Path:   []Step{{Func: "h", Addr: 0x10, Note: "system"}},
	}
	s := f.String()
	for _, want := range []string{"VULNERABLE", "getenv", "system", "command-injection"} {
		if !strings.Contains(s, want) {
			t.Errorf("finding string %q missing %q", s, want)
		}
	}
	f.Sanitized = true
	if !strings.Contains(f.String(), "sanitized") {
		t.Error("sanitized not rendered")
	}
}

func TestOverflowGuardRules(t *testing.T) {
	taintE := tab.Sym(expr.TaintName("recv", 0x100))
	obs := PendingSink{Class: ClassBufferOverflow, Sink: "memcpy", SinkAddr: 1, TaintExpr: taintE, GuardExpr: taintE}

	// No constraints: unsanitized.
	if legacyOverflowGuarded(obs, indexOf(nil)) {
		t.Fatal("no constraints but guarded")
	}
	// EQ/NE checks (NUL scans) do not bound a copy.
	eq := []symexec.Constraint{{L: taintE, R: tab.Const(0), Cond: isa.CondEQ}}
	if legacyOverflowGuarded(obs, indexOf(eq)) {
		t.Fatal("EQ check treated as bound")
	}
	// A magnitude comparison on the tainted value sanitizes.
	lt := []symexec.Constraint{{L: taintE, R: tab.Const(64), Cond: isa.CondLT}}
	if !legacyOverflowGuarded(obs, indexOf(lt)) {
		t.Fatal("LT bound not recognized")
	}
	// A comparison of the length symbol also sanitizes.
	lenC := []symexec.Constraint{{L: tab.Sym(LenSymName(taintE.Key())), R: tab.Const(64), Cond: isa.CondGE}}
	if !legacyOverflowGuarded(obs, indexOf(lenC)) {
		t.Fatal("strlen bound not recognized")
	}
	// Constraints on unrelated values do not sanitize.
	other := []symexec.Constraint{{L: tab.Sym("other"), R: tab.Const(64), Cond: isa.CondLT}}
	if legacyOverflowGuarded(obs, indexOf(other)) {
		t.Fatal("unrelated constraint treated as guard")
	}
}

// TestOffByOneBoundaryGuard is the regression test for the `<=` blunder
// the interval domain fixes: a guard admitting length == capacity on a
// NUL-terminating copy (`if (n > 152) reject` before strcpy into a
// 152-byte buffer) still overflows by the terminator byte. The default
// checks classify it off-by-one and unsanitized; one byte of slack
// (n < 152) sanitizes; the legacy ablation check deliberately keeps the
// old `<=` acceptance.
func TestOffByOneBoundaryGuard(t *testing.T) {
	tr := NewTracker()
	tr.BeginFunction("handler")
	taintE := tab.Sym(expr.TaintName("recv", 0x100))
	obs := PendingSink{Class: ClassBufferOverflow, Sink: "strcpy", SinkAddr: 1,
		TaintExpr: taintE, GuardExpr: taintE, DstCap: 152}

	le := &symexec.Summary{Func: "handler", Constraints: []symexec.Constraint{
		{L: taintE, R: tab.Const(152), Cond: isa.CondLE, Addr: 0x40},
	}}
	v := tr.checkObs(obs, le, indexOf(le.Constraints))
	if v.sanitized || v.class != ClassOffByOne {
		t.Fatalf("n <= 152 into cap 152: got sanitized=%v class=%v, want off-by-one finding", v.sanitized, v.class)
	}
	if len(v.evidence) == 0 {
		t.Fatal("off-by-one verdict carries no evidence")
	}

	lt := &symexec.Summary{Func: "handler", Constraints: []symexec.Constraint{
		{L: taintE, R: tab.Const(151), Cond: isa.CondLE, Addr: 0x40},
	}}
	if v := tr.checkObs(obs, lt, indexOf(lt.Constraints)); !v.sanitized {
		t.Fatalf("n <= 151 into cap 152 must sanitize, got %+v", v)
	}

	// Explicit-length sinks (memcpy) legitimately fill the whole buffer.
	memObs := obs
	memObs.Sink = "memcpy"
	if v := tr.checkObs(memObs, le, indexOf(le.Constraints)); !v.sanitized {
		t.Fatalf("memcpy of <= 152 into cap 152 must sanitize, got %+v", v)
	}

	// The ablation keeps the historical acceptance.
	if !legacyOverflowGuarded(obs, indexOf(le.Constraints)) {
		t.Fatal("legacy check must keep the <= acceptance under -ablate vrange")
	}
}

func TestCommandGuardRules(t *testing.T) {
	ts := tab.Sym(expr.TaintName("getenv", 0x20))
	obs := PendingSink{Class: ClassCommandInjection, Sink: "system", SinkAddr: 1, TaintExpr: ts, GuardExpr: tab.Sym("cmdptr")}

	if separatorGuarded(obs, indexOf(nil), SemicolonByte) {
		t.Fatal("unchecked command guarded")
	}
	// EQ against ';' over the tainted data sanitizes.
	semi := []symexec.Constraint{{L: ts, R: tab.Const(SemicolonByte), Cond: isa.CondEQ}}
	if !separatorGuarded(obs, indexOf(semi), SemicolonByte) {
		t.Fatal("';' EQ check not recognized")
	}
	// Reversed operand order too.
	semiRev := []symexec.Constraint{{L: tab.Const(SemicolonByte), R: ts, Cond: isa.CondNE}}
	if !separatorGuarded(obs, indexOf(semiRev), SemicolonByte) {
		t.Fatal("reversed ';' check not recognized")
	}
	// A magnitude comparison against ';' does not count.
	mag := []symexec.Constraint{{L: ts, R: tab.Const(SemicolonByte), Cond: isa.CondLT}}
	if separatorGuarded(obs, indexOf(mag), SemicolonByte) {
		t.Fatal("magnitude ';' comparison treated as guard")
	}
	// A ';' check never sanitizes a path-traversal sink: the guard is
	// keyed on the sink's own separator byte.
	if separatorGuarded(obs, indexOf(semi), DotByte) {
		t.Fatal("';' check accepted for a '.'-guarded sink")
	}
	// Deref rooted at the command pointer counts.
	cmdPtr := tab.Sym("cmdptr")
	obs2 := PendingSink{Class: ClassCommandInjection, Sink: "system", SinkAddr: 1, TaintExpr: ts, GuardExpr: cmdPtr}
	byByte := []symexec.Constraint{{
		L: tab.Deref(tab.Add(cmdPtr, 3)), R: tab.Const(SemicolonByte), Cond: isa.CondNE,
	}}
	if !separatorGuarded(obs2, indexOf(byByte), SemicolonByte) {
		t.Fatal("byte-scan over cmd pointer not recognized")
	}
}

func TestLoopGuardRules(t *testing.T) {
	mk := func(l, r *expr.Expr, cond isa.Cond, inLoop bool) symexec.Constraint {
		return symexec.Constraint{L: l, R: r, Cond: cond, InLoop: inLoop}
	}
	// Small const-const bound (loop-once concretized induction): guarded.
	if !loopGuarded([]symexec.Constraint{mk(tab.Const(1), tab.Const(16), isa.CondLT, true)}) {
		t.Fatal("small fixed loop not guarded")
	}
	// Large bound: unguarded.
	if loopGuarded([]symexec.Constraint{mk(tab.Const(1), tab.Const(2048), isa.CondLT, true)}) {
		t.Fatal("2048-byte loop treated as safe")
	}
	// Tainted symbolic bound: unguarded.
	ts := tab.Sym(expr.TaintName("read", 1))
	if loopGuarded([]symexec.Constraint{mk(ts, tab.Const(16), isa.CondLT, true)}) {
		t.Fatal("tainted bound treated as safe")
	}
	// Symbolic untainted vs small const: guarded.
	if !loopGuarded([]symexec.Constraint{mk(tab.Sym("i"), tab.Const(32), isa.CondLT, true)}) {
		t.Fatal("symbolic small bound not guarded")
	}
	// Out-of-loop constraints are ignored.
	if loopGuarded([]symexec.Constraint{mk(tab.Const(1), tab.Const(16), isa.CondLT, false)}) {
		t.Fatal("out-of-loop constraint counted")
	}
}

func TestIsArgRooted(t *testing.T) {
	if !isArgRooted(tab.Deref(tab.Add(tab.Arg(2), 8))) {
		t.Fatal("arg deref not detected")
	}
	if isArgRooted(tab.Deref(tab.Sym("heap_x"))) {
		t.Fatal("heap deref wrongly arg-rooted")
	}
}

func TestPrimarySource(t *testing.T) {
	e := tab.Bin(expr.OpOr,
		tab.Sym(expr.TaintName("recv", 0x200)),
		tab.Sym(expr.TaintName("getenv", 0x100)))
	src, site := primarySource(e)
	// Lexicographically smallest taint symbol wins: getenv < recv.
	if src != "getenv" || site != 0x100 {
		t.Fatalf("source = %s@%#x", src, site)
	}
	if src, _ := primarySource(tab.Const(1)); src != "" {
		t.Fatal("untainted expr has a source")
	}
}

func TestPendingDepthBound(t *testing.T) {
	tr := NewTracker()
	tr.BeginFunction("f")
	deep := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkAddr: 1,
		TaintExpr: tab.Deref(tab.Arg(0)),
	}
	for i := 0; i < MaxPendingDepth; i++ {
		deep.Path = &Hop{Func: fmt.Sprintf("g%d", i), Addr: uint32(i), Depth: uint32(i + 1), Prev: deep.Path}
	}
	if deep.Depth() != MaxPendingDepth {
		t.Fatalf("depth = %d, want %d", deep.Depth(), MaxPendingDepth)
	}
	tr.ImportPending([]PendingSink{deep}, func(e *expr.Expr) *expr.Expr { return e }, 0x10)
	sum := &symexec.Summary{Func: "f", Types: map[string]expr.Type{}}
	if fs, ps := tr.EndFunction(sum); len(ps) != 0 || len(fs) != 0 {
		t.Fatal("over-deep pending not dropped")
	}
}

func TestObservationDedup(t *testing.T) {
	tr := NewTracker()
	tr.BeginFunction("f")
	ts := tab.Sym(expr.TaintName("recv", 9))
	o := PendingSink{Class: ClassBufferOverflow, Sink: "strcpy", SinkAddr: 5, TaintExpr: ts, GuardExpr: ts}
	tr.observe(o)
	tr.observe(o)
	sum := &symexec.Summary{Func: "f", Types: map[string]expr.Type{}}
	if fs, _ := tr.EndFunction(sum); len(fs) != 1 {
		t.Fatalf("findings = %d, want 1 (dedup)", len(fs))
	}
}

func TestImportPendingSkipsDuplicates(t *testing.T) {
	// Two callees push the same sink and taint with different guards,
	// constraints and paths. The second is a duplicate observation: only
	// its taint is substituted, and the first import's path and carried
	// constraints survive.
	taintE := tab.Deref(tab.Arg(0))
	first := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkFunc: "a", SinkAddr: 0x40,
		TaintExpr: taintE, GuardExpr: tab.Arg(1),
		Constraints: []symexec.Constraint{{L: tab.Arg(1), R: tab.Const(8), Cond: isa.CondLT}},
	}
	dup := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkFunc: "b", SinkAddr: 0x40,
		TaintExpr: taintE, GuardExpr: tab.Arg(2),
		Constraints: []symexec.Constraint{
			{L: tab.Arg(2), R: tab.Const(16), Cond: isa.CondLT},
			{L: tab.Arg(3), R: tab.Const(32), Cond: isa.CondGE},
		},
	}
	var subbed []*expr.Expr
	sub := func(e *expr.Expr) *expr.Expr { subbed = append(subbed, e); return e }

	tr := NewTracker()
	tr.BeginFunction("f")
	tr.ImportPending([]PendingSink{first, dup}, sub, 0x10)
	// first: taint, guard, and both sides of its one constraint; dup: taint.
	want := []*expr.Expr{taintE, tab.Arg(1), tab.Arg(1), tab.Const(8), taintE}
	if len(subbed) != len(want) {
		t.Fatalf("sub called %d times on %v, want %d", len(subbed), subbed, len(want))
	}
	for i := range want {
		if !subbed[i].Equal(want[i]) {
			t.Fatalf("sub call %d on %s, want %s", i, subbed[i], want[i])
		}
	}

	_, ps := tr.EndFunction(&symexec.Summary{Func: "f", Types: map[string]expr.Type{}})
	if len(ps) != 1 {
		t.Fatalf("pendings = %d, want 1", len(ps))
	}
	p := ps[0]
	if p.SinkFunc != "a" || !p.GuardExpr.Equal(first.GuardExpr) {
		t.Fatalf("pending from %s guarded by %s, want the first import's", p.SinkFunc, p.GuardExpr)
	}
	if got, want := p.Steps(), []Step{{Func: "a", Addr: 0x40, Note: "strcpy"}, {Func: "f", Addr: 0x10, Note: "call a"}}; !slices.Equal(got, want) {
		t.Fatalf("path = %v, want the first import's path plus the callsite %v", got, want)
	}
	if len(p.Constraints) != 1 || !p.Constraints[0].L.Equal(tab.Arg(1)) {
		t.Fatalf("constraints = %v, want the first import's", p.Constraints)
	}
}

// A hop's depth fills Addr's padding, so on a 64-bit host a Hop is as
// large as it was before it carried one.
func TestHopCarriesDepthInPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Hop{}) != 32 {
		t.Fatalf("a Hop takes %d bytes, want 32", unsafe.Sizeof(Hop{}))
	}
}

// TestImportSharesPath imports one callee sink, which has already
// climbed one callsite, into two callers. Each caller's pending sink
// must link its hop to the callee's by pointer, and each caller's
// finding must spell the path the callee's steps plus the callsite, and
// its hop must carry depth 2.
func TestImportSharesPath(t *testing.T) {
	callee := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkFunc: "leaf", SinkAddr: 0x10,
		TaintExpr: tab.Deref(tab.Arg(0)), GuardExpr: tab.Deref(tab.Arg(0)),
		Path: &Hop{Func: "mid", Addr: 0x20, Depth: 1},
	}
	keep := func(e *expr.Expr) *expr.Expr { return e }
	src := tab.Sym(expr.TaintName("recv", 0x8))
	tainted := func(e *expr.Expr) *expr.Expr { return tab.Subst(e, tab.Arg(0), src) }
	tr := NewTracker()
	for _, caller := range []struct {
		name string
		site uint32
	}{{"top1", 0x30}, {"top2", 0x40}} {
		tr.BeginFunction(caller.name)
		tr.ImportPending([]PendingSink{callee}, keep, caller.site)
		tr.ImportPending([]PendingSink{callee}, tainted, caller.site)
		fs, ps := tr.EndFunction(&symexec.Summary{Func: caller.name, Types: map[string]expr.Type{}})
		if len(ps) != 1 {
			t.Fatalf("%s: pendings = %d, want 1", caller.name, len(ps))
		}
		if h := ps[0].Path; h.Prev != callee.Path || h.Func != caller.name || h.Addr != caller.site || h.Depth != 2 {
			t.Fatalf("%s: hop %+v does not link %s@%#x to the callee's hop %p", caller.name, h, caller.name, caller.site, callee.Path)
		}
		if len(fs) != 1 || fs[0].SinkFunc != "leaf" {
			t.Fatalf("%s: findings = %v, want the tainted import", caller.name, fs)
		}
		want := []Step{
			{Func: "leaf", Addr: 0x10, Note: "strcpy"},
			{Func: "mid", Addr: 0x20, Note: "call leaf"},
			{Func: caller.name, Addr: caller.site, Note: "call leaf"},
		}
		if got := fs[0].Path; !slices.Equal(got, want) {
			t.Fatalf("%s: finding path = %v, want %v", caller.name, got, want)
		}
	}
}

func TestLenSymStability(t *testing.T) {
	a := LenSymName("deref(arg0)")
	b := LenSymName("deref(arg0)")
	if a != b {
		t.Fatal("len symbol not deterministic")
	}
	if a == LenSymName("deref(arg1)") {
		t.Fatal("len symbols collide")
	}
}

func TestVulnKeyStable(t *testing.T) {
	// Zero-padded address: the field boundaries stay unambiguous and the
	// public/internal report layers produce byte-identical keys.
	got := VulnKey("f", "strcpy", 0x38, "buffer-overflow")
	if got != "f|strcpy|00000038|buffer-overflow" {
		t.Fatalf("VulnKey = %q", got)
	}
	if VulnKey("f", "strcpy", 0x38, "x") == VulnKey("f", "strcpy", 0x1238, "x") {
		t.Fatal("distinct addresses collide")
	}
}

// TestTrackerHoldsOneFunction runs several functions through one
// tracker, as each bottom-up worker does. A function starts from
// nothing: an earlier function's dedup keys do not drop its
// observations and an earlier function's guards do not sanitize them.
// The pending sinks a function returns stay as they were while the next
// function stages into the tracker's reused array.
func TestTrackerHoldsOneFunction(t *testing.T) {
	tr := NewTracker()
	end := func(fn string) ([]Finding, []PendingSink) {
		return tr.EndFunction(&symexec.Summary{Func: fn, Types: map[string]expr.Type{}})
	}
	ts := tab.Sym(expr.TaintName("recv", 9))
	copyObs := PendingSink{Class: ClassBufferOverflow, Sink: "strcpy", SinkAddr: 5, TaintExpr: ts, GuardExpr: ts}
	for run := 1; run <= 2; run++ {
		tr.BeginFunction("f")
		tr.observe(copyObs)
		if fs, _ := end("f"); len(fs) != 1 {
			t.Fatalf("run %d of f: findings = %d, want 1", run, len(fs))
		}
	}

	cmdObs := PendingSink{Class: ClassCommandInjection, Sink: "system", SinkAddr: 0x20, TaintExpr: ts, GuardExpr: ts}
	tr.BeginFunction("g")
	// What strchr(s, ';') registers for s.
	for _, root := range guardRoots(ts) {
		tr.guards[guardKey{root, SemicolonByte}] = true
	}
	tr.observe(cmdObs)
	if fs, _ := end("g"); len(fs) != 1 || !fs[0].Sanitized {
		t.Fatalf("g: findings = %v, want one sanitized by its own guard", fs)
	}
	tr.BeginFunction("h")
	tr.observe(cmdObs)
	if fs, _ := end("h"); len(fs) != 1 || fs[0].Sanitized {
		t.Fatalf("h: findings = %v, want one unsanitized: g's guard leaked", fs)
	}

	argE := tab.Deref(tab.Arg(0))
	tr.BeginFunction("p")
	tr.observe(PendingSink{Class: ClassBufferOverflow, Sink: "strcpy", SinkAddr: 0x30, TaintExpr: argE, GuardExpr: argE})
	_, ps := end("p")
	if len(ps) != 1 || cap(ps) != 1 {
		t.Fatalf("p: pendings len %d cap %d, want an exact-size copy of 1", len(ps), cap(ps))
	}
	tr.BeginFunction("q")
	other := tab.Deref(tab.Arg(1))
	tr.observe(PendingSink{Class: ClassCommandInjection, Sink: "system", SinkAddr: 0x40, TaintExpr: other, GuardExpr: other})
	if p := ps[0]; p.Sink != "strcpy" || p.SinkFunc != "p" || p.SinkAddr != 0x30 || p.TaintExpr != argE {
		t.Fatalf("p's pending sink changed to %+v while q staged", p)
	}
}
