package taint

import (
	"strings"
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
)

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
	protos := Prototypes()
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
	taintE := expr.Sym(expr.TaintName("recv", 0x100))
	obs := sinkObs{class: ClassBufferOverflow, sink: "memcpy", addr: 1, taint: taintE, guard: taintE}

	// No constraints: unsanitized.
	if legacyOverflowGuarded(obs, nil) {
		t.Fatal("no constraints but guarded")
	}
	// EQ/NE checks (NUL scans) do not bound a copy.
	eq := []symexec.Constraint{{L: taintE, R: expr.Const(0), Cond: isa.CondEQ}}
	if legacyOverflowGuarded(obs, eq) {
		t.Fatal("EQ check treated as bound")
	}
	// A magnitude comparison on the tainted value sanitizes.
	lt := []symexec.Constraint{{L: taintE, R: expr.Const(64), Cond: isa.CondLT}}
	if !legacyOverflowGuarded(obs, lt) {
		t.Fatal("LT bound not recognized")
	}
	// A comparison of the length symbol also sanitizes.
	lenC := []symexec.Constraint{{L: expr.Sym(LenSymName(taintE.Key())), R: expr.Const(64), Cond: isa.CondGE}}
	if !legacyOverflowGuarded(obs, lenC) {
		t.Fatal("strlen bound not recognized")
	}
	// Constraints on unrelated values do not sanitize.
	other := []symexec.Constraint{{L: expr.Sym("other"), R: expr.Const(64), Cond: isa.CondLT}}
	if legacyOverflowGuarded(obs, other) {
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
	taintE := expr.Sym(expr.TaintName("recv", 0x100))
	obs := sinkObs{class: ClassBufferOverflow, sink: "strcpy", addr: 1,
		taint: taintE, guard: taintE, dstCap: 152}

	le := &symexec.Summary{Func: "handler", Constraints: []symexec.Constraint{
		{L: taintE, R: expr.Const(152), Cond: isa.CondLE, Addr: 0x40},
	}}
	v := tr.checkObs(obs, le)
	if v.sanitized || v.class != ClassOffByOne {
		t.Fatalf("n <= 152 into cap 152: got sanitized=%v class=%v, want off-by-one finding", v.sanitized, v.class)
	}
	if len(v.evidence) == 0 {
		t.Fatal("off-by-one verdict carries no evidence")
	}

	lt := &symexec.Summary{Func: "handler", Constraints: []symexec.Constraint{
		{L: taintE, R: expr.Const(151), Cond: isa.CondLE, Addr: 0x40},
	}}
	if v := tr.checkObs(obs, lt); !v.sanitized {
		t.Fatalf("n <= 151 into cap 152 must sanitize, got %+v", v)
	}

	// Explicit-length sinks (memcpy) legitimately fill the whole buffer.
	memObs := obs
	memObs.sink = "memcpy"
	if v := tr.checkObs(memObs, le); !v.sanitized {
		t.Fatalf("memcpy of <= 152 into cap 152 must sanitize, got %+v", v)
	}

	// The ablation keeps the historical acceptance.
	if !legacyOverflowGuarded(obs, le.Constraints) {
		t.Fatal("legacy check must keep the <= acceptance under -ablate vrange")
	}
}

func TestCommandGuardRules(t *testing.T) {
	ts := expr.Sym(expr.TaintName("getenv", 0x20))
	obs := sinkObs{class: ClassCommandInjection, sink: "system", addr: 1, taint: ts, guard: expr.Sym("cmdptr")}

	if separatorGuarded(obs, nil, SemicolonByte) {
		t.Fatal("unchecked command guarded")
	}
	// EQ against ';' over the tainted data sanitizes.
	semi := []symexec.Constraint{{L: ts, R: expr.Const(SemicolonByte), Cond: isa.CondEQ}}
	if !separatorGuarded(obs, semi, SemicolonByte) {
		t.Fatal("';' EQ check not recognized")
	}
	// Reversed operand order too.
	semiRev := []symexec.Constraint{{L: expr.Const(SemicolonByte), R: ts, Cond: isa.CondNE}}
	if !separatorGuarded(obs, semiRev, SemicolonByte) {
		t.Fatal("reversed ';' check not recognized")
	}
	// A magnitude comparison against ';' does not count.
	mag := []symexec.Constraint{{L: ts, R: expr.Const(SemicolonByte), Cond: isa.CondLT}}
	if separatorGuarded(obs, mag, SemicolonByte) {
		t.Fatal("magnitude ';' comparison treated as guard")
	}
	// A ';' check never sanitizes a path-traversal sink: the guard is
	// keyed on the sink's own separator byte.
	if separatorGuarded(obs, semi, DotByte) {
		t.Fatal("';' check accepted for a '.'-guarded sink")
	}
	// Deref rooted at the command pointer counts.
	cmdPtr := expr.Sym("cmdptr")
	obs2 := sinkObs{class: ClassCommandInjection, sink: "system", addr: 1, taint: ts, guard: cmdPtr}
	byByte := []symexec.Constraint{{
		L: expr.Deref(expr.Add(cmdPtr, 3)), R: expr.Const(SemicolonByte), Cond: isa.CondNE,
	}}
	if !separatorGuarded(obs2, byByte, SemicolonByte) {
		t.Fatal("byte-scan over cmd pointer not recognized")
	}
}

func TestLoopGuardRules(t *testing.T) {
	mk := func(l, r *expr.Expr, cond isa.Cond, inLoop bool) symexec.Constraint {
		return symexec.Constraint{L: l, R: r, Cond: cond, InLoop: inLoop}
	}
	// Small const-const bound (loop-once concretized induction): guarded.
	if !loopGuarded([]symexec.Constraint{mk(expr.Const(1), expr.Const(16), isa.CondLT, true)}) {
		t.Fatal("small fixed loop not guarded")
	}
	// Large bound: unguarded.
	if loopGuarded([]symexec.Constraint{mk(expr.Const(1), expr.Const(2048), isa.CondLT, true)}) {
		t.Fatal("2048-byte loop treated as safe")
	}
	// Tainted symbolic bound: unguarded.
	ts := expr.Sym(expr.TaintName("read", 1))
	if loopGuarded([]symexec.Constraint{mk(ts, expr.Const(16), isa.CondLT, true)}) {
		t.Fatal("tainted bound treated as safe")
	}
	// Symbolic untainted vs small const: guarded.
	if !loopGuarded([]symexec.Constraint{mk(expr.Sym("i"), expr.Const(32), isa.CondLT, true)}) {
		t.Fatal("symbolic small bound not guarded")
	}
	// Out-of-loop constraints are ignored.
	if loopGuarded([]symexec.Constraint{mk(expr.Const(1), expr.Const(16), isa.CondLT, false)}) {
		t.Fatal("out-of-loop constraint counted")
	}
}

func TestIsArgRooted(t *testing.T) {
	if !isArgRooted(expr.Deref(expr.Add(expr.Arg(2), 8))) {
		t.Fatal("arg deref not detected")
	}
	if isArgRooted(expr.Deref(expr.Sym("heap_x"))) {
		t.Fatal("heap deref wrongly arg-rooted")
	}
}

func TestPrimarySource(t *testing.T) {
	e := expr.Bin(expr.OpOr,
		expr.Sym(expr.TaintName("recv", 0x200)),
		expr.Sym(expr.TaintName("getenv", 0x100)))
	src, site := primarySource(e)
	// Lexicographically smallest taint symbol wins: getenv < recv.
	if src != "getenv" || site != 0x100 {
		t.Fatalf("source = %s@%#x", src, site)
	}
	if src, _ := primarySource(expr.Const(1)); src != "" {
		t.Fatal("untainted expr has a source")
	}
}

func TestPendingDepthBound(t *testing.T) {
	tr := NewTracker()
	tr.BeginFunction("f")
	deep := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkAddr: 1,
		TaintExpr: expr.Deref(expr.Arg(0)), Depth: MaxPendingDepth,
	}
	tr.ImportPending([]PendingSink{deep}, func(e *expr.Expr) *expr.Expr { return e }, 0x10)
	sum := &symexec.Summary{Func: "f", Types: map[string]expr.Type{}}
	tr.EndFunction(sum)
	if len(tr.Pendings("f")) != 0 || len(tr.Findings()) != 0 {
		t.Fatal("over-deep pending not dropped")
	}
}

func TestObservationDedup(t *testing.T) {
	tr := NewTracker()
	tr.BeginFunction("f")
	ts := expr.Sym(expr.TaintName("recv", 9))
	o := sinkObs{class: ClassBufferOverflow, sink: "strcpy", addr: 5, taint: ts, guard: ts}
	tr.observe(o)
	tr.observe(o)
	sum := &symexec.Summary{Func: "f", Types: map[string]expr.Type{}}
	tr.EndFunction(sum)
	if len(tr.Findings()) != 1 {
		t.Fatalf("findings = %d, want 1 (dedup)", len(tr.Findings()))
	}
}

func TestImportPendingSkipsDuplicates(t *testing.T) {
	// Two callees push the same sink and taint with different guards,
	// constraints and paths. The second is a duplicate observation: only
	// its taint is substituted, and the first import's path and carried
	// constraints survive.
	taintE := expr.Deref(expr.Arg(0))
	first := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkFunc: "a", SinkAddr: 0x40,
		TaintExpr: taintE, GuardExpr: expr.Arg(1),
		Path:        []Step{{Func: "a", Addr: 0x40, Note: "strcpy"}},
		Constraints: []symexec.Constraint{{L: expr.Arg(1), R: expr.Const(8), Cond: isa.CondLT}},
	}
	dup := PendingSink{
		Class: ClassBufferOverflow, Sink: "strcpy", SinkFunc: "b", SinkAddr: 0x40,
		TaintExpr: taintE, GuardExpr: expr.Arg(2),
		Path: []Step{{Func: "b", Addr: 0x40, Note: "strcpy"}},
		Constraints: []symexec.Constraint{
			{L: expr.Arg(2), R: expr.Const(16), Cond: isa.CondLT},
			{L: expr.Arg(3), R: expr.Const(32), Cond: isa.CondGE},
		},
	}
	var subbed []*expr.Expr
	sub := func(e *expr.Expr) *expr.Expr { subbed = append(subbed, e); return e }

	tr := NewTracker()
	tr.BeginFunction("f")
	tr.ImportPending([]PendingSink{first, dup}, sub, 0x10)
	// first: taint, guard, and both sides of its one constraint; dup: taint.
	want := []*expr.Expr{taintE, expr.Arg(1), expr.Arg(1), expr.Const(8), taintE}
	if len(subbed) != len(want) {
		t.Fatalf("sub called %d times on %v, want %d", len(subbed), subbed, len(want))
	}
	for i := range want {
		if !subbed[i].Equal(want[i]) {
			t.Fatalf("sub call %d on %s, want %s", i, subbed[i], want[i])
		}
	}

	tr.EndFunction(&symexec.Summary{Func: "f", Types: map[string]expr.Type{}})
	ps := tr.Pendings("f")
	if len(ps) != 1 {
		t.Fatalf("pendings = %d, want 1", len(ps))
	}
	p := ps[0]
	if p.SinkFunc != "a" || !p.GuardExpr.Equal(first.GuardExpr) {
		t.Fatalf("pending from %s guarded by %s, want the first import's", p.SinkFunc, p.GuardExpr)
	}
	if len(p.Path) != 2 || p.Path[0] != first.Path[0] || p.Path[1] != (Step{Func: "f", Addr: 0x10, Note: "call a"}) {
		t.Fatalf("path = %v, want the first import's path plus the callsite", p.Path)
	}
	if len(p.Constraints) != 1 || !p.Constraints[0].L.Equal(expr.Arg(1)) {
		t.Fatalf("constraints = %v, want the first import's", p.Constraints)
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

func TestTrackerShard(t *testing.T) {
	tr := NewTracker()
	tr.AddSource(SourceSpec{Name: "nvram_get", BufArg: -1, ViaReturn: true})
	tr.AddSink(SinkSpec{Name: "flash_write", Class: ClassBufferOverflow, DataArg: 0, LenArg: 1})
	tr.BeginFunction("f")
	ts := expr.Sym(expr.TaintName("recv", 9))
	tr.observe(sinkObs{class: ClassBufferOverflow, sink: "strcpy", addr: 5, taint: ts, guard: ts})
	tr.EndFunction(&symexec.Summary{Func: "f", Types: map[string]expr.Type{}})

	s := tr.Shard()
	// Configuration is shared...
	if len(s.extraSources) != 1 || len(s.extraSinks) != 1 {
		t.Fatal("shard lost the custom vocabulary")
	}
	// ...but finding/pending state is not.
	if len(s.Findings()) != 0 || len(s.Pendings("f")) != 0 {
		t.Fatal("shard inherited finding state")
	}
	s.BeginFunction("g")
	s.observe(sinkObs{class: ClassBufferOverflow, sink: "strcpy", addr: 7, taint: ts, guard: ts})
	s.EndFunction(&symexec.Summary{Func: "g", Types: map[string]expr.Type{}})
	if len(tr.Findings()) != 1 {
		t.Fatalf("shard findings leaked into parent: %d", len(tr.Findings()))
	}
	if len(s.Findings()) != 1 {
		t.Fatalf("shard findings = %d, want 1", len(s.Findings()))
	}
}
