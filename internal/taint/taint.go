// Package taint implements DTaint's vulnerability-detection layer
// (Section IV): the source/sink vocabulary (Table I plus extensions,
// declared in internal/vocab and compiled here), symbolic models of
// the C library, taint introduction and propagation, sink observation,
// and the sanitization-constraint checks that decide whether a
// (source, path, sink) tuple is a taint-style vulnerability.
package taint

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
	"dtaint/internal/vrange"
)

// Class is the vulnerability class of a sink.
type Class int

// Vulnerability classes. The first two are the paper's constraint-
// expression kinds; off-by-one and length-truncation are refinements
// the value-range domain makes decidable: a copy whose proven bound
// equals the destination capacity exactly (the NUL terminator lands
// one byte past the end), and a tainted length narrowed by a one-byte
// store (the classic truncated-length-check pattern). Format-string
// and path-traversal are vocabulary extensions beyond Table I: a
// tainted format reaching the printf family, and a tainted path
// reaching a file operation without a '.'-probe.
const (
	ClassBufferOverflow Class = iota + 1
	ClassCommandInjection
	ClassOffByOne
	ClassLengthTruncation
	ClassFormatString
	ClassPathTraversal
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassBufferOverflow:
		return "buffer-overflow"
	case ClassCommandInjection:
		return "command-injection"
	case ClassOffByOne:
		return "off-by-one"
	case ClassLengthTruncation:
		return "length-truncation"
	case ClassFormatString:
		return "format-string"
	case ClassPathTraversal:
		return "path-traversal"
	}
	return "class?"
}

// Sources is the default vocabulary's input-source census (Table I
// plus the NVRAM getters).
var Sources = DefaultVocabulary().SourceNames()

// Sinks is the default vocabulary's sensitive-sink census (LoopSink
// denotes loop buffer copies, detected structurally rather than by
// name).
var Sinks = DefaultVocabulary().SinkNames()

// LoopSink names the structural loop-copy sink of Table I; it is not a
// library function and never appears in a vocabulary spec.
const LoopSink = "loop"

// NarrowStoreSink names the structural 1-byte-store sink behind the
// length-truncation class.
const NarrowStoreSink = "narrow-store"

// SemicolonByte is the command separator whose absence of checking makes a
// system()/popen() call injectable.
const SemicolonByte = 0x3B

// DotByte is the path-traversal probe: a file-op sink whose tainted
// path was scanned for '.' (the "..' climb marker) counts as sanitized,
// mirroring the ';' rule for command injection.
const DotByte = 0x2E

// Step is one hop of a source-to-sink path, ordered sink-first.
type Step struct {
	Func string
	Addr uint32
	Note string
}

// String implements fmt.Stringer.
func (s Step) String() string {
	if s.Note != "" {
		return fmt.Sprintf("%s@%#x(%s)", s.Func, s.Addr, s.Note)
	}
	return fmt.Sprintf("%s@%#x", s.Func, s.Addr)
}

// Finding is one (source, path, sink) tuple. Sanitized findings are kept
// for diagnostics; unsanitized ones are the paper's "vulnerable paths".
type Finding struct {
	Class      Class
	Sink       string
	SinkFunc   string
	SinkAddr   uint32
	Source     string
	SourceAddr uint64
	TaintExpr  *expr.Expr
	GuardExpr  *expr.Expr
	Path       []Step
	Sanitized  bool
	// Evidence is the constraint/interval chain behind the verdict —
	// why the path was (or was not) considered sanitized — rendered into
	// the report so an analyst can audit the decision.
	Evidence []string
}

// String renders a one-line report.
func (f Finding) String() string {
	state := "VULNERABLE"
	if f.Sanitized {
		state = "sanitized"
	}
	steps := make([]string, len(f.Path))
	for i, s := range f.Path {
		steps[i] = s.String()
	}
	return fmt.Sprintf("[%s] %s -> %s in %s@%#x (%s) path=%s",
		state, f.Source, f.Sink, f.SinkFunc, f.SinkAddr, f.Class,
		strings.Join(steps, " <- "))
}

// PendingSink is a sink whose taintedness depends on the caller: its
// critical expressions are rooted in formal arguments. Algorithm 2 pushes
// these up to every callsite.
type PendingSink struct {
	Class       Class
	Sink        string
	SinkFunc    string
	SinkAddr    uint32
	TaintExpr   *expr.Expr
	GuardExpr   *expr.Expr
	Path        []Step
	Constraints []symexec.Constraint
	Guarded     bool // a guard (e.g. strchr ';' scan) already seen below
	Depth       int
	// DstCap and BoundHint travel with the sink: the destination buffer
	// lives in the sink function's frame, so its capacity is fixed when
	// the observation is made.
	DstCap    int64
	BoundHint int64
}

// MaxPendingDepth bounds how many call levels a pending sink may climb.
const MaxPendingDepth = 24

// sinkObs is an in-flight sink observation inside the current function.
type sinkObs struct {
	class   Class
	sink    string
	addr    uint32
	taint   *expr.Expr
	guard   *expr.Expr
	path    []Step
	carried []symexec.Constraint
	guarded bool
	depth   int
	// dstCap is the destination stack buffer's capacity in bytes when it
	// is derivable from the frame layout (0 = unknown).
	dstCap int64
	// boundHint is an intrinsic copy bound in bytes (e.g. a %254s scanf
	// width means at most 255 bytes are written); 0 = none.
	boundHint int64
}

// Tracker is the stateful oracle half of the detector: it models library
// calls for the symbolic engine (sources introduce taint, libc calls
// propagate it, sinks are observed) and accumulates findings across
// functions. It implements symexec.Oracle for import calls; local calls
// return Handled=false so the interprocedural driver can apply callee
// summaries.
type Tracker struct {
	curFunc string
	obs     []sinkObs
	guards  map[guardKey]bool // guarded content roots (strchr-style checks), per separator byte

	findings []Finding
	pendings map[string][]PendingSink
	obsSeen  map[obsKey]bool
	frames   []trackerFrame

	vocab *Vocabulary

	bin *image.Binary

	// noVRange disables the value-range sanitization refinement (the
	// `-ablate vrange` mode): verdicts fall back to the pre-interval
	// checks. Path discovery is identical in both modes — only the
	// Sanitized flag and the finding class may differ.
	noVRange bool
}

// DisableValueRange switches the tracker to the pre-interval
// sanitization checks (ablation). Must be set before analysis starts.
func (t *Tracker) DisableValueRange() { t.noVRange = true }

// SetBinary gives the tracker access to the program image, enabling
// models that inspect read-only data (e.g. scanf format-width bounds).
func (t *Tracker) SetBinary(b *image.Binary) { t.bin = b }

// SetVocabulary replaces the compiled vocabulary driving source/sink
// detection, propagation models, and sanitization verdicts. Must be
// set before analysis starts; nil restores the embedded default.
func (t *Tracker) SetVocabulary(v *Vocabulary) {
	if v == nil {
		v = DefaultVocabulary()
	}
	t.vocab = v
}

// guardKey identifies one registered separator-byte guard: the content
// root it covers and the byte that was scanned for.
type guardKey struct {
	root string
	b    byte
}

var _ symexec.Oracle = (*Tracker)(nil)

// NewTracker returns an empty tracker with the default vocabulary.
func NewTracker() *Tracker {
	return &Tracker{
		vocab:    DefaultVocabulary(),
		pendings: make(map[string][]PendingSink),
		obsSeen:  make(map[obsKey]bool),
	}
}

// Shard returns a tracker sharing t's configuration — the vocabulary,
// the program image and the value-range switch — but owning fresh
// finding, pending, and observation state. The parallel bottom-up
// scheduler gives every call-graph component its own shard and merges
// the per-shard results deterministically; the shared maps are never
// mutated after configuration, so shards are safe to use concurrently.
func (t *Tracker) Shard() *Tracker {
	s := NewTracker()
	s.bin = t.bin
	s.vocab = t.vocab
	s.noVRange = t.noVRange
	return s
}

// VulnKey is the canonical deduplication key for a vulnerability:
// several paths may reach the same weak sink, and every report layer
// (internal Result, public Report) must collapse them identically — a
// formatting mismatch between layers makes the two counts diverge.
func VulnKey(sinkFunc, sink string, sinkAddr uint32, class string) string {
	return fmt.Sprintf("%s|%s|%08x|%s", sinkFunc, sink, sinkAddr, class)
}

// BeginFunction resets per-function observation state.
func (t *Tracker) BeginFunction(name string) {
	t.curFunc = name
	t.obs = nil
	t.guards = make(map[guardKey]bool)
	t.frames = nil
}

// trackerFrame saves the per-function state across a recursive descent.
type trackerFrame struct {
	fn     string
	obs    []sinkObs
	guards map[guardKey]bool
}

// PushFrame suspends the current function's observation state and begins
// a nested one. The context-sensitive top-down baseline uses this when it
// recursively analyzes a callee in the middle of the caller's analysis.
func (t *Tracker) PushFrame(name string) {
	t.frames = append(t.frames, trackerFrame{fn: t.curFunc, obs: t.obs, guards: t.guards})
	t.curFunc = name
	t.obs = nil
	t.guards = make(map[guardKey]bool)
}

// PopFrame finalizes the nested function against its summary (as
// EndFunction does) and restores the suspended caller state.
func (t *Tracker) PopFrame(sum *symexec.Summary) {
	t.EndFunction(sum)
	if n := len(t.frames); n > 0 {
		fr := t.frames[n-1]
		t.frames = t.frames[:n-1]
		t.curFunc = fr.fn
		t.obs = fr.obs
		t.guards = fr.guards
	}
}

// Pendings returns the pending sinks exported by a summarized function.
func (t *Tracker) Pendings(fn string) []PendingSink { return t.pendings[fn] }

// Findings returns every recorded (source, path, sink) tuple.
func (t *Tracker) Findings() []Finding { return t.findings }

// PrototypesFor returns the prototypes of a loaded vocabulary; nil
// falls back to the default.
func PrototypesFor(v *Vocabulary) map[string]symexec.Proto {
	if v == nil {
		v = DefaultVocabulary()
	}
	return v.Prototypes()
}

// LenSymName is the symbol naming the length of the string content with
// the given expression key (the strlen model's return value).
func LenSymName(contentKey string) string { return "len_" + expr.Hash(contentKey) }

// Call implements symexec.Oracle: model library calls.
func (t *Tracker) Call(ctx *symexec.CallContext) symexec.CallEffect {
	// Vocabulary entries model imported library functions. A binary-local
	// function that happens to share a name (firmware shipping its own
	// strcpy) is NOT the libc routine: its body is analyzed like any other
	// local function, so modeling it here would both double-count and
	// mis-model. Models are therefore keyed on import/PLT identity — a
	// resolved local callee is never dispatched to the vocabulary.
	if ctx.Kind == cfg.CallLocal {
		return symexec.CallEffect{}
	}
	m, ok := t.vocab.models[ctx.Callee]
	if !ok {
		return symexec.CallEffect{}
	}
	switch m.kind {
	case kindBufferSource:
		return t.modelBufferSource(ctx, m)
	case kindReturnSource:
		return t.modelReturningSource(ctx)
	case kindCopy:
		return t.modelCopy(ctx, m)
	case kindBoundedCopy:
		return t.modelBoundedCopy(ctx, m)
	case kindRawCopy:
		return t.modelRawCopy(ctx, m)
	case kindFormatCopy:
		return t.modelFormatCopy(ctx, m)
	case kindScanCopy:
		return t.modelScanCopy(ctx, m)
	case kindUnboundedRead:
		return t.modelUnboundedRead(ctx, m)
	case kindSepSink:
		return t.modelSepSink(ctx, m)
	case kindFormatSink:
		return t.modelFormatSink(ctx, m)
	case kindLenOf:
		return t.modelLenOf(ctx, m)
	case kindParseInt:
		return t.modelParseInt(ctx, m)
	case kindByteScan:
		return t.modelByteScan(ctx, m)
	case kindAlloc:
		return symexec.CallEffect{
			Handled: true,
			Ret:     expr.Sym(expr.HeapName(fmt.Sprintf("%s@%x", ctx.Func, ctx.Site))),
		}
	case kindNop:
		return symexec.CallEffect{Handled: true}
	}
	return symexec.CallEffect{}
}

// content returns the string/buffer content reached through pointer value
// p in the current path state. OR-combined pointers (a callee with
// several alternative returns) resolve component-wise so taint behind any
// alternative is seen.
func content(ctx *symexec.CallContext, p *expr.Expr) *expr.Expr {
	if p == nil {
		return nil
	}
	if op, x, y, ok := p.BinOperands(); ok && op == expr.OpOr {
		return orCombine(content(ctx, x), content(ctx, y))
	}
	return ctx.ResolveDeep(ctx.Resolve(p))
}

// arg returns the i'th call argument; absent roles (index -1) and
// calls shorter than the prototype resolve to nil.
func arg(ctx *symexec.CallContext, i int) *expr.Expr {
	if i < 0 || i >= len(ctx.Args) {
		return nil
	}
	return ctx.Args[i]
}

func taintSym(source string, site uint32) *expr.Expr {
	return expr.Sym(expr.TaintName(source, uint64(site)))
}

// orCombine folds non-nil expressions with OR, preserving every taint and
// marker symbol of the operands.
func orCombine(exprs ...*expr.Expr) *expr.Expr {
	var out *expr.Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		if out.Equal(e) {
			continue
		}
		out = expr.Bin(expr.OpOr, out, e)
	}
	return out
}

// stackCapacity derives a destination buffer's capacity from the frame
// layout: a pointer sp+d with d < 0 has -d bytes before the writes cross
// the caller's frame (the paper reports exact buffer sizes — "a local
// stack buffer of max size 152" — recovered the same way).
func stackCapacity(p *expr.Expr) int64 {
	if p == nil {
		return 0
	}
	base, off, ok := p.BasePlusOffset()
	if !ok || off >= 0 {
		return 0
	}
	if name, isSym := base.SymName(); isSym && name == expr.StackSym {
		return -off
	}
	return 0
}

// scanfMaxWidth extracts the largest conversion width from a scanf format
// string ("%254s" -> 254); 0 when no width is present.
func scanfMaxWidth(format string) int64 {
	var best int64
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		var w int64
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			w = w*10 + int64(format[i]-'0')
			i++
		}
		if w > best {
			best = w
		}
	}
	return best
}

// formatString reads the constant format-string argument from rodata.
func (t *Tracker) formatString(fmtArg *expr.Expr) (string, bool) {
	if t.bin == nil || fmtArg == nil {
		return "", false
	}
	addr, ok := fmtArg.ConstVal()
	if !ok || addr < 0 {
		return "", false
	}
	return t.bin.StringAt(uint32(addr))
}

func (t *Tracker) modelBufferSource(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	buf := arg(ctx, m.dest)
	if buf == nil {
		return symexec.CallEffect{Handled: true}
	}
	ts := taintSym(ctx.Callee, ctx.Site)
	eff := symexec.CallEffect{
		Handled: true,
		MemDefs: []symexec.MemDef{{Addr: buf, Val: ts}},
	}
	// A NUL-terminating bounded source (fgets(buf, n, f)) reads at most
	// n-1 characters, so the length of the attacker data it writes is
	// provably in [0, n-1] — the libc model every later strlen/strcpy of
	// this content inherits through the interval environment.
	if m.nul && m.lenArg >= 0 {
		if nArg := ctx.ResolveDeep(arg(ctx, m.lenArg)); nArg != nil {
			if n, ok := nArg.ConstVal(); ok && n > 0 {
				eff.Ranges = map[string]vrange.Interval{
					LenSymName(ts.Key()): vrange.Range(0, n-1),
				}
			}
		}
	}
	return eff
}

func (t *Tracker) modelReturningSource(ctx *symexec.CallContext) symexec.CallEffect {
	ptr := expr.Sym(expr.HeapName(fmt.Sprintf("%s@%x", ctx.Callee, ctx.Site)))
	return symexec.CallEffect{
		Handled: true,
		Ret:     ptr,
		MemDefs: []symexec.MemDef{{Addr: ptr, Val: taintSym(ctx.Callee, ctx.Site)}},
	}
}

// modelCopy is the unbounded NUL-terminating copy (strcpy, and strcat
// with the append flag set).
func (t *Tracker) modelCopy(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	dst, src := arg(ctx, m.dest), arg(ctx, m.src)
	c := content(ctx, src)
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: c, guard: c, dstCap: stackCapacity(dst),
	})
	eff := symexec.CallEffect{Handled: true, Ret: dst}
	if dst != nil && c != nil {
		val := c
		if m.appendTo {
			val = orCombine(content(ctx, dst), c)
		}
		eff.MemDefs = []symexec.MemDef{{Addr: dst, Val: val}}
	}
	return eff
}

// modelBoundedCopy is the explicit-length copy (strncpy, and strncat
// with the append flag set).
func (t *Tracker) modelBoundedCopy(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	dst, src, n := arg(ctx, m.dest), arg(ctx, m.src), arg(ctx, m.lenArg)
	c := content(ctx, src)
	nRes := ctx.ResolveDeep(n)
	// The copy is dangerous when the copied data is tainted and the length
	// is not a sanitizing bound (e.g. strncpy(d, s, strlen(s))).
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: orCombine(c, nRes), guard: nRes, dstCap: stackCapacity(dst),
	})
	eff := symexec.CallEffect{Handled: true, Ret: dst}
	if dst != nil && c != nil {
		val := c
		if m.appendTo {
			val = orCombine(content(ctx, dst), c)
		}
		eff.MemDefs = []symexec.MemDef{{Addr: dst, Val: val}}
	}
	return eff
}

// modelFormatCopy is the format-driven copy into a destination buffer
// (sprintf; snprintf when a len role bounds it). Every argument from the
// format on — the format itself included — feeds the copy.
func (t *Tracker) modelFormatCopy(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	dst := arg(ctx, m.dest)
	var parts []*expr.Expr
	for i := m.fmtArg; i < len(ctx.Args); i++ {
		a := ctx.Args[i]
		if a == nil {
			continue
		}
		parts = append(parts, ctx.ResolveDeep(a), content(ctx, a))
	}
	combined := orCombine(parts...)
	obs := sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: combined, guard: combined, dstCap: stackCapacity(dst),
	}
	// A size bound (snprintf): a constant size that fits the destination
	// sanitizes; a tainted or oversized size does not.
	if m.lenArg >= 0 {
		sizeRes := ctx.ResolveDeep(arg(ctx, m.lenArg))
		if sizeRes != nil {
			if v, ok := sizeRes.ConstVal(); ok && v > 0 {
				obs.boundHint = v
			}
		}
		obs.taint = orCombine(combined, sizeRes)
		obs.guard = sizeRes
	}
	t.observe(obs)
	eff := symexec.CallEffect{Handled: true}
	if dst != nil && combined != nil {
		eff.MemDefs = []symexec.MemDef{{Addr: dst, Val: combined}}
	}
	return eff
}

// modelRawCopy is the explicit-length raw copy (memcpy), where a tainted
// length alone is already a finding.
func (t *Tracker) modelRawCopy(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	dst, src, n := arg(ctx, m.dest), arg(ctx, m.src), arg(ctx, m.lenArg)
	c := content(ctx, src)
	nRes := ctx.ResolveDeep(n)
	// Two weaknesses: a tainted length (Heartbleed's payload), and tainted
	// data copied under an unchecked length.
	cap0 := stackCapacity(dst)
	// A constant copy length that fits the destination is statically safe;
	// the observation is kept (as a sanitized path) for diagnostics. The
	// length is judged after resolution — a register holding a constant is
	// as decidable as an immediate.
	fits := false
	if nRes != nil {
		if ln, okC := nRes.ConstVal(); okC && cap0 > 0 && ln <= cap0 {
			fits = true
		}
	}
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: nRes, guard: nRes, dstCap: cap0, guarded: fits,
	})
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: c, guard: nRes, dstCap: cap0, guarded: fits,
	})
	return propagateMemcpy(dst, c)
}

// propagateMemcpy applies memcpy's data effect: mem[dst] = content(src).
func propagateMemcpy(dst, c *expr.Expr) symexec.CallEffect {
	eff := symexec.CallEffect{Handled: true, Ret: dst}
	if dst != nil && c != nil {
		eff.MemDefs = []symexec.MemDef{{Addr: dst, Val: c}}
	}
	return eff
}

// modelScanCopy is the parsing copy (sscanf): a src argument scanned
// through a format into variadic destination buffers.
func (t *Tracker) modelScanCopy(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	src := arg(ctx, m.src)
	c := content(ctx, src)
	// A tainted format is attacker data reaching the copy in its own
	// right (conversion widths under attacker control); OR it into the
	// scanned content. Constant formats resolve taint-free and leave the
	// observation unchanged.
	if fc := content(ctx, arg(ctx, m.fmtArg)); fc != nil && fc.ContainsTaint() {
		c = orCombine(c, fc)
	}
	// A conversion width in the format bounds the copy; it sanitizes only
	// when the width (plus NUL) fits the smallest destination buffer —
	// the Uniview zero-day is exactly a %254s into a 180-byte buffer.
	var width, minCap int64
	if f, ok := t.formatString(arg(ctx, m.fmtArg)); ok {
		width = scanfMaxWidth(f)
	}
	for i := m.fmtArg + 1; i < len(ctx.Args); i++ {
		if cp := stackCapacity(ctx.Args[i]); cp > 0 && (minCap == 0 || cp < minCap) {
			minCap = cp
		}
	}
	var hint int64
	if width > 0 {
		hint = width + 1
	}
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: c, guard: c, dstCap: minCap, boundHint: hint,
	})
	eff := symexec.CallEffect{Handled: true}
	for i := m.fmtArg + 1; i < len(ctx.Args); i++ {
		if ctx.Args[i] != nil && c != nil {
			eff.MemDefs = append(eff.MemDefs, symexec.MemDef{Addr: ctx.Args[i], Val: c})
		}
	}
	return eff
}

// modelSepSink is a data sink whose sanitizer is a separator-byte probe
// on the tainted data: system/popen guarded by a ';' scan, open/fopen/
// unlink guarded by a '.' scan.
func (t *Tracker) modelSepSink(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	data := arg(ctx, m.dataArg)
	c := orCombine(ctx.ResolveDeep(data), content(ctx, data))
	guarded := false
	if c != nil {
		for _, root := range guardRoots(c) {
			if t.guards[guardKey{root, m.guardByte}] {
				guarded = true
			}
		}
	}
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: c, guard: data, guarded: guarded,
	})
	return symexec.CallEffect{Handled: true}
}

// modelFormatSink is the printf family: a tainted format string is the
// finding; the copy destination is the output stream, not a buffer.
func (t *Tracker) modelFormatSink(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	f := arg(ctx, m.fmtArg)
	c := orCombine(ctx.ResolveDeep(f), content(ctx, f))
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: c, guard: f,
	})
	return symexec.CallEffect{Handled: true}
}

// modelUnboundedRead handles gets-shaped sinks: attacker input with no
// possible bound — a reachable call on a stack buffer is always a
// finding.
func (t *Tracker) modelUnboundedRead(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	buf := arg(ctx, m.dest)
	ts := taintSym(ctx.Callee, ctx.Site)
	t.observe(sinkObs{
		class: m.class, sink: ctx.Callee, addr: ctx.Site,
		taint: ts, guard: nil, dstCap: stackCapacity(buf),
	})
	eff := symexec.CallEffect{Handled: true, Ret: buf}
	if buf != nil {
		eff.MemDefs = []symexec.MemDef{{Addr: buf, Val: ts}}
	}
	return eff
}

func (t *Tracker) modelLenOf(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	c := content(ctx, arg(ctx, m.src))
	if c == nil {
		return symexec.CallEffect{Handled: true}
	}
	lenName := LenSymName(c.Key())
	ret := expr.Sym(lenName)
	// The length of tainted data is itself attacker-controlled.
	for _, ts := range c.TaintSyms() {
		ret = expr.Bin(expr.OpOr, ret, expr.Sym(ts))
	}
	// A string length is never negative; met with any source-model bound
	// (fgets) this pins the symbol to [0, n-1].
	return symexec.CallEffect{
		Handled: true,
		Ret:     ret,
		Ranges:  map[string]vrange.Interval{lenName: vrange.AtLeast(0)},
	}
}

func (t *Tracker) modelParseInt(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	c := content(ctx, arg(ctx, m.src))
	if c == nil {
		return symexec.CallEffect{Handled: true}
	}
	name := "atoi_" + expr.Hash(c.Key())
	ret := expr.Sym(name)
	for _, ts := range c.TaintSyms() {
		ret = expr.Bin(expr.OpOr, ret, expr.Sym(ts))
	}
	eff := symexec.CallEffect{Handled: true, Ret: ret}
	// strtol-family range model: when the input string's length is
	// already bounded (e.g. it came from fgets) and the base is a known
	// constant, the parsed magnitude is below base^len. Entries without a
	// base argument (atoi) parse decimal.
	base := int64(10)
	if m.baseArg >= 0 {
		base = 0
		if b := arg(ctx, m.baseArg); b != nil {
			if v, okC := ctx.ResolveDeep(b).ConstVal(); okC && v >= 2 && v <= 36 {
				base = v
			}
		}
	}
	if base > 0 {
		if lenIv, ok := ctx.RangeOf(LenSymName(c.Key())); ok && lenIv.Bounded() && lenIv.Hi >= 0 {
			if mag, okP := powCapped(base, lenIv.Hi); okP {
				iv := vrange.Range(-(mag - 1), mag-1)
				if m.unsigned {
					iv = vrange.Range(0, mag-1)
				}
				eff.Ranges = map[string]vrange.Interval{name: iv}
			}
		}
	}
	return eff
}

// powCapped computes base^exp, reporting failure once the result leaves
// the 32-bit value domain (an unbounded parse).
func powCapped(base, exp int64) (int64, bool) {
	v := int64(1)
	for i := int64(0); i < exp; i++ {
		v *= base
		if v > vrange.DomainMax {
			return 0, false
		}
	}
	return v, true
}

// modelByteScan treats a scan for a sanitizer byte — strchr(s, ';')
// before system, strchr(s, '.') before open — as a separator guard on
// s, registered under the scanned byte so a ';' probe never sanitizes a
// path sink or vice versa.
func (t *Tracker) modelByteScan(ctx *symexec.CallContext, m fnModel) symexec.CallEffect {
	s, ch := arg(ctx, m.src), arg(ctx, m.byteArg)
	if ch != nil {
		if v, ok := ch.ConstVal(); ok && v >= 0 && v < 256 && t.vocab.guardBytes[byte(v)] {
			if c := content(ctx, s); c != nil {
				for _, root := range guardRoots(c) {
					t.guards[guardKey{root, byte(v)}] = true
				}
			}
		}
	}
	return symexec.CallEffect{Handled: true, Ret: expr.Sym("strchr_" + expr.Hash(fmt.Sprintf("%x", ctx.Site)))}
}

// guardRoots returns the identity keys under which a guard on content c is
// registered and looked up: the content's own key, the keys of each
// OR-combined component (command expressions combine the pointer value
// and its pointee), plus its taint symbols.
func guardRoots(c *expr.Expr) []string {
	seen := map[string]bool{}
	var roots []string
	var add func(e *expr.Expr)
	add = func(e *expr.Expr) {
		if op, x, y, ok := e.BinOperands(); ok && op == expr.OpOr {
			add(x)
			add(y)
			return
		}
		if !seen[e.Key()] {
			seen[e.Key()] = true
			roots = append(roots, e.Key())
		}
	}
	add(c)
	for _, ts := range c.TaintSyms() {
		if !seen[ts] {
			seen[ts] = true
			roots = append(roots, ts)
		}
	}
	return roots
}

// obsKey identifies one sink observation: the observing function, the
// sink and its site, and the taint expression reaching it.
type obsKey struct {
	fn, sink, taint string
	addr            uint32
}

// observe stages a sink observation for the current function, deduplicated
// by (site, taint key).
func (t *Tracker) observe(o sinkObs) {
	if o.taint == nil {
		return
	}
	key := obsKey{t.curFunc, o.sink, o.taint.Key(), o.addr}
	if t.obsSeen[key] {
		return
	}
	t.obsSeen[key] = true
	if len(o.path) == 0 {
		o.path = []Step{{Func: t.curFunc, Addr: o.addr, Note: o.sink}}
	}
	t.obs = append(t.obs, o)
}

// ImportPending re-evaluates a callee's pending sinks at a callsite in the
// current function (Algorithm 2's PushToCallSite, executed bottom-up).
// sub substitutes formal arguments with actuals and resolves the result
// against the live caller state. The substituted taint alone decides
// whether the observation is new, so the guard, carried constraints and
// path are instantiated only for observations observe will keep.
func (t *Tracker) ImportPending(ps []PendingSink, sub func(*expr.Expr) *expr.Expr, callSite uint32) {
	for _, p := range ps {
		if p.Depth >= MaxPendingDepth {
			continue
		}
		taintE := sub(p.TaintExpr)
		if taintE == nil || t.obsSeen[obsKey{t.curFunc, p.Sink, taintE.Key(), p.SinkAddr}] {
			continue
		}
		guardE := p.GuardExpr
		if guardE != nil {
			guardE = sub(guardE)
		}
		carried := make([]symexec.Constraint, 0, len(p.Constraints))
		for _, c := range p.Constraints {
			carried = append(carried, symexec.Constraint{
				L: sub(c.L), R: sub(c.R), Cond: c.Cond, Addr: c.Addr, InLoop: c.InLoop,
			})
		}
		path := make([]Step, len(p.Path), len(p.Path)+1)
		copy(path, p.Path)
		path = append(path, Step{Func: t.curFunc, Addr: callSite, Note: "call " + p.SinkFunc})
		t.observe(sinkObs{
			class: p.Class, sink: p.Sink, addr: p.SinkAddr,
			taint: taintE, guard: guardE,
			path: path, carried: carried, guarded: p.Guarded,
			depth:  p.Depth + 1,
			dstCap: p.DstCap, boundHint: p.BoundHint,
		})
	}
}

// EndFunction finalizes the function's observations against its completed
// summary: tainted sinks become findings, argument-rooted sinks become
// pending sinks for the callers, and loop-copy stores are checked as the
// structural "loop" sink of Table I.
func (t *Tracker) EndFunction(sum *symexec.Summary) {
	// Structural loop-copy sinks.
	for _, ls := range sum.LoopStores {
		if ls.Val == nil || (!ls.Val.ContainsTaint() && !isArgRooted(ls.Val)) {
			continue
		}
		t.observe(sinkObs{
			class: ClassBufferOverflow, sink: LoopSink, addr: ls.Addr,
			taint: ls.Val, guard: ls.Val,
		})
	}

	// Narrowing stores of tainted lengths (CWE-197): a strlen result
	// squeezed through a 1-byte store silently drops the high bits any
	// later bound check would have rejected. Staged in both vrange modes
	// so path discovery is mode-independent; only the verdict differs.
	for _, dp := range sum.DefPairs {
		if dp.Size != 1 || dp.U == nil || !dp.U.ContainsTaint() || !mentionsLenSym(dp.U) {
			continue
		}
		t.observe(sinkObs{
			class: ClassLengthTruncation, sink: NarrowStoreSink, addr: dp.Addr,
			taint: dp.U, guard: dp.U,
		})
	}

	// One constraint index serves every observation of this function; it
	// is built on the first scan that needs it and dropped on return.
	ix := constraintIndex{cs: sum.Constraints}
	for _, o := range t.obs {
		switch {
		case o.taint.ContainsTaint():
			v := t.checkObs(o, sum, &ix)
			f := Finding{
				Class:     v.class,
				Sink:      o.sink,
				SinkFunc:  sinkFuncOf(o, sum.Func),
				SinkAddr:  o.addr,
				TaintExpr: o.taint,
				GuardExpr: o.guard,
				Path:      o.path,
				Sanitized: v.sanitized,
				Evidence:  v.evidence,
			}
			f.Source, f.SourceAddr = primarySource(o.taint)
			t.findings = append(t.findings, f)
		case isArgRooted(o.taint) || readsGlobal(o.taint):
			// A check performed below this point (in this function or a
			// callee) sanitizes the path no matter where the taint enters;
			// evaluate it now, while the local length-symbol names still
			// match (ReplaceFormalArgs cannot rewrite hashed names).
			guarded := o.guarded || t.checkObs(o, sum, &ix).sanitized
			t.pendings[sum.Func] = append(t.pendings[sum.Func], PendingSink{
				Class:       o.class,
				Sink:        o.sink,
				SinkFunc:    sinkFuncOf(o, sum.Func),
				SinkAddr:    o.addr,
				TaintExpr:   o.taint,
				GuardExpr:   o.guard,
				Path:        o.path,
				Constraints: append(relevantConstraints(&ix, o), o.carried...),
				Guarded:     guarded,
				Depth:       o.depth,
				DstCap:      o.dstCap,
				BoundHint:   o.boundHint,
			})
		}
	}
	t.obs = nil
}

func sinkFuncOf(o sinkObs, cur string) string {
	if len(o.path) > 0 {
		return o.path[0].Func
	}
	return cur
}

// obsGuarded re-checks the guard table for observations staged before the
// guard was registered on the same path.
func (t *Tracker) obsGuarded(o sinkObs) bool {
	if o.class != ClassCommandInjection && o.class != ClassPathTraversal {
		return false
	}
	gb := t.guardByteFor(o)
	for _, root := range guardRoots(o.taint) {
		if t.guards[guardKey{root, gb}] {
			return true
		}
	}
	return false
}

// guardByteFor returns the separator byte whose check sanitizes this
// observation's sink: its vocabulary entry's guard byte, which
// CompileVocabulary always sets for command and path sinks.
func (t *Tracker) guardByteFor(o sinkObs) byte {
	return t.vocab.models[o.sink].guardByte
}

// isArgRooted reports whether e depends on a formal argument and can
// therefore become tainted in a caller context.
func isArgRooted(e *expr.Expr) bool {
	return e.AnySym(func(s string) bool {
		_, ok := expr.ArgIndex(s)
		return ok
	})
}

// readsGlobal reports whether e reads memory at an absolute address — a
// global variable that a sibling function (reached earlier in the
// caller's execution) may have tainted.
func readsGlobal(e *expr.Expr) bool {
	if e == nil {
		return false
	}
	if addr, ok := e.DerefAddr(); ok {
		if _, isConst := addr.ConstVal(); isConst {
			return true
		}
		if base, _, ok2 := addr.BasePlusOffset(); ok2 {
			if _, isConst := base.ConstVal(); isConst {
				return true
			}
		}
		return readsGlobal(addr)
	}
	if _, x, y, ok := e.BinOperands(); ok {
		return readsGlobal(x) || readsGlobal(y)
	}
	return false
}

// primarySource attributes the finding to the lexically smallest taint
// symbol (deterministic when multiple sources mix).
func primarySource(e *expr.Expr) (string, uint64) {
	ts := e.TaintSyms()
	if len(ts) == 0 {
		return "", 0
	}
	sort.Strings(ts)
	src, site, ok := expr.TaintSource(ts[0])
	if !ok {
		return "input", 0
	}
	return src, site
}

// relevantConstraints selects the function's constraints that mention any
// symbol of the observation's taint or guard expressions, so they can be
// carried (and substituted) when the pending sink climbs to callers.
func relevantConstraints(ix *constraintIndex, o sinkObs) []symexec.Constraint {
	if len(ix.cs) == 0 {
		return nil
	}
	var marks marks
	marks.addSyms(o.taint)
	if o.guard != nil {
		marks.addSyms(o.guard)
	}
	if ix.mentionsLen(nil) {
		marks.add(LenSymName(o.taint.Key()))
		if o.guard != nil {
			marks.add(LenSymName(o.guard.Key()))
		}
	}
	var out []symexec.Constraint
	ix.scan(marks, nil, func(c symexec.Constraint) bool {
		if marks.mentionedBy(c.L) || marks.mentionedBy(c.R) {
			out = append(out, c)
		}
		return false
	})
	return out
}

// marks is the set of names a constraint must mention to count for an
// observation. It holds a handful of names, so a slice beats a map.
type marks []string

func (m *marks) add(name string) {
	if !slices.Contains(*m, name) {
		*m = append(*m, name)
	}
}

// addSyms adds every symbol of e.
func (m *marks) addSyms(e *expr.Expr) {
	e.AnySym(func(s string) bool { m.add(s); return false })
}

// addTaintSyms adds every taint symbol of e.
func (m *marks) addTaintSyms(e *expr.Expr) {
	e.AnySym(func(s string) bool {
		if expr.IsTaintName(s) {
			m.add(s)
		}
		return false
	})
}

func (m marks) has(name string) bool { return slices.Contains(m, name) }

// mentionedBy reports whether some symbol of e is marked.
func (m marks) mentionedBy(e *expr.Expr) bool {
	return e != nil && e.AnySym(m.has)
}

// sideMarked reports whether a constraint side is marked as a whole or
// mentions a marked symbol.
func (m marks) sideMarked(e *expr.Expr) bool {
	return e != nil && (m.has(e.Key()) || m.mentionedBy(e))
}

// constraintIndex is one function's path constraints, indexed by every
// name the verdict scans look up: each symbol a constraint side mentions
// and each side's own key. A scan visits only the constraints that carry
// one of its marks instead of every constraint, and re-checks each with
// its exact predicate, so the index need only over-approximate. It is
// built on the first scan and lives for one EndFunction.
type constraintIndex struct {
	cs []symexec.Constraint
	// head maps a name to 1 + the position in postings of its newest
	// constraint; each posting links to the name's previous one.
	head     map[string]int32
	postings []posting
	cand     []int32 // scratch for the current scan's candidates
	lens     bool    // some constraint mentions a length symbol
}

type posting struct{ c, next int32 }

// build indexes the constraints on first use.
func (ix *constraintIndex) build() {
	if ix.head != nil || len(ix.cs) == 0 {
		return
	}
	ix.head = make(map[string]int32)
	for i, c := range ix.cs {
		for _, side := range [2]*expr.Expr{c.L, c.R} {
			if side == nil {
				continue
			}
			ix.post(side.Key(), int32(i))
			side.AnySym(func(s string) bool {
				ix.post(s, int32(i))
				ix.lens = ix.lens || isLenSym(s)
				return false
			})
		}
	}
}

// mentionsLen reports whether the function's constraints or the carried
// ones mention a length symbol. Only then can a length-symbol mark
// match, so scans skip hashing an expression key into one otherwise.
func (ix *constraintIndex) mentionsLen(carried []symexec.Constraint) bool {
	ix.build()
	if ix.lens {
		return true
	}
	for _, c := range carried {
		if c.L != nil && mentionsLenSym(c.L) || c.R != nil && mentionsLenSym(c.R) {
			return true
		}
	}
	return false
}

// post records that constraint i mentions name, once per constraint.
func (ix *constraintIndex) post(name string, i int32) {
	h := ix.head[name]
	if h != 0 && ix.postings[h-1].c == i {
		return
	}
	ix.postings = append(ix.postings, posting{c: i, next: h})
	ix.head[name] = int32(len(ix.postings))
}

// scan calls f on the function's constraints that mention one of m, in
// ascending order, then on every constraint carried up from callees, and
// stops at the first call that returns true. It reports whether one did.
func (ix *constraintIndex) scan(m marks, carried []symexec.Constraint, f func(symexec.Constraint) bool) bool {
	ix.build()
	ix.cand = ix.cand[:0]
	for _, name := range m {
		for p := ix.head[name]; p != 0; p = ix.postings[p-1].next {
			ix.cand = append(ix.cand, ix.postings[p-1].c)
		}
	}
	slices.Sort(ix.cand)
	for _, i := range slices.Compact(ix.cand) {
		if f(ix.cs[i]) {
			return true
		}
	}
	for _, c := range carried {
		if f(c) {
			return true
		}
	}
	return false
}

// verdict is the outcome of one sanitization check together with the
// constraint/interval evidence chain behind it.
type verdict struct {
	sanitized bool
	class     Class
	evidence  []string
}

// checkObs decides one observation's verdict: the interval-aware checks
// by default, the legacy constraint checks under the vrange ablation.
// Both modes see the same observations — only Sanitized and the finding
// class may differ between them, never which paths are discovered. ix
// indexes sum.Constraints; the observation's carried constraints are
// scanned after them.
func (t *Tracker) checkObs(o sinkObs, sum *symexec.Summary, ix *constraintIndex) verdict {
	switch {
	case o.class == ClassCommandInjection || o.class == ClassPathTraversal:
		v := verdict{class: o.class}
		if o.guarded || separatorGuarded(o, ix, t.guardByteFor(o)) || t.obsGuarded(o) {
			v.sanitized = true
			if o.class == ClassCommandInjection {
				v.evidence = append(v.evidence,
					"command separator ';' checked on the tainted data")
			} else {
				v.evidence = append(v.evidence,
					"path climb marker '.' probed on the tainted path")
			}
		}
		return v
	case o.class == ClassFormatString:
		// A tainted format string is the vulnerability itself: no byte
		// probe or length bound makes attacker-controlled conversions
		// safe, so the class has no sanitizer shape. Constant formats
		// resolve taint-free and never reach this arm.
		return verdict{class: o.class, evidence: []string{
			"attacker-controlled format string reaches a printf-family sink"}}
	case o.class == ClassLengthTruncation:
		return t.checkTruncation(o, sum)
	case t.noVRange:
		v := verdict{class: o.class, sanitized: o.guarded || legacyOverflowGuarded(o, ix)}
		return v
	default:
		return t.checkOverflow(o, sum, ix)
	}
}

// checkOverflow is the interval-aware buffer-overflow check: a bound
// sanitizes only when the proven maximum of the copied length stays
// strictly below the destination capacity for NUL-terminating copies
// (`<=` at exact capacity is the off-by-one class), or at most equal for
// explicit-length copies.
func (t *Tracker) checkOverflow(o sinkObs, sum *symexec.Summary, ix *constraintIndex) verdict {
	v := verdict{class: o.class}
	if o.guarded {
		v.sanitized = true
		v.evidence = append(v.evidence, "bound established below the sink")
		return v
	}
	if o.guard == nil {
		v.evidence = append(v.evidence, "no bound can apply to this sink")
		return v
	}
	nul := t.nulSink(o.sink)
	// An intrinsic copy bound (scanf conversion width, snprintf size)
	// decides directly against the destination capacity.
	if o.boundHint > 0 && o.dstCap > 0 {
		switch {
		case o.boundHint <= o.dstCap:
			v.sanitized = true
			v.evidence = append(v.evidence, fmt.Sprintf(
				"intrinsic copy bound %d fits capacity %d", o.boundHint, o.dstCap))
		case o.boundHint == o.dstCap+1:
			v.class = ClassOffByOne
			v.evidence = append(v.evidence, fmt.Sprintf(
				"intrinsic copy bound %d overruns capacity %d by exactly one byte",
				o.boundHint, o.dstCap))
		default:
			v.evidence = append(v.evidence, fmt.Sprintf(
				"intrinsic copy bound %d exceeds capacity %d", o.boundHint, o.dstCap))
		}
		return v
	}
	if o.sink == LoopSink {
		if loopGuarded(ix.cs) || loopGuarded(o.carried) {
			v.sanitized = true
			v.evidence = append(v.evidence, "loop trip count bounded by a small constant")
		}
		return v
	}
	env := t.obsEnv(o, sum)
	if o.dstCap > 0 {
		if nul {
			// The copy writes strlen(content)+1 bytes: the proven length
			// bound must leave room for the NUL terminator.
			if ub, ok := contentLenBound(o.guard, env); ok {
				switch {
				case ub < o.dstCap:
					v.sanitized = true
					v.evidence = append(v.evidence, fmt.Sprintf(
						"strlen(content) <= %d proven, +NUL fits capacity %d", ub, o.dstCap))
					return v
				case ub == o.dstCap:
					v.class = ClassOffByOne
					v.evidence = append(v.evidence, fmt.Sprintf(
						"strlen(content) <= %d proven: the NUL terminator lands one byte past capacity %d",
						ub, o.dstCap))
					return v
				default:
					v.evidence = append(v.evidence, fmt.Sprintf(
						"proven length bound %d exceeds capacity %d", ub, o.dstCap))
				}
			}
		} else if ub, ok := vrange.MaxValueEnv(o.guard, env); ok {
			// Explicit-length copy: a length of exactly the capacity fits.
			if ub <= o.dstCap {
				v.sanitized = true
				v.evidence = append(v.evidence, fmt.Sprintf(
					"copy length bounded by %d, fits capacity %d", ub, o.dstCap))
				return v
			}
			v.evidence = append(v.evidence, fmt.Sprintf(
				"copy length bound %d exceeds capacity %d", ub, o.dstCap))
		}
	}
	// Constraint scan: symbolic bounds and comparisons the interval
	// derivation cannot express (unknown capacities, symbolic caps).
	marks := guardMarks(o, ix)
	decided := ix.scan(marks, o.carried, func(c symexec.Constraint) bool {
		other, ok := marks.magnitudeBound(c)
		if !ok {
			return false
		}
		b, okC := other.ConstVal()
		switch {
		case !okC:
			v.sanitized = true
			v.evidence = append(v.evidence, fmt.Sprintf(
				"symbolic bound %s at %#x", other, c.Addr))
		case o.dstCap == 0:
			v.sanitized = true
			v.evidence = append(v.evidence, fmt.Sprintf(
				"magnitude check against %d at %#x (capacity unknown)", b, c.Addr))
		case nul && b == o.dstCap:
			v.class = ClassOffByOne
			v.evidence = append(v.evidence, fmt.Sprintf(
				"guard at %#x admits length == capacity %d: `<=` check is off by one",
				c.Addr, o.dstCap))
		case (nul && b < o.dstCap) || (!nul && b <= o.dstCap):
			v.sanitized = true
			v.evidence = append(v.evidence, fmt.Sprintf(
				"constant bound %d at %#x fits capacity %d", b, c.Addr, o.dstCap))
		default:
			return false
		}
		return true
	})
	if !decided {
		v.evidence = append(v.evidence, "no sanitizing bound on the tainted data")
	}
	return v
}

// checkTruncation decides a narrowing-store observation: the store is
// safe only when the stored length provably fits one byte. The ablation
// cannot judge narrowing stores and marks them all sanitized, restoring
// the pre-interval vulnerable set.
func (t *Tracker) checkTruncation(o sinkObs, sum *symexec.Summary) verdict {
	v := verdict{class: ClassLengthTruncation}
	if t.noVRange {
		v.sanitized = true
		return v
	}
	env := t.obsEnv(o, sum)
	// A structurally masked store (AND 0x7F before STRB) bounds the
	// whole stored value regardless of the length's own range.
	if iv := vrange.OfExpr(o.taint, env); iv.Bounded() && iv.Lo >= 0 && iv.Hi <= 0xFF {
		v.sanitized = true
		v.evidence = append(v.evidence, fmt.Sprintf(
			"stored value in %s fits the 1-byte store", iv))
		return v
	}
	// Otherwise bound the length symbols themselves (the OR-combined
	// taint bookkeeping hides the value from the structural walk).
	lens := lenComponents(o.taint)
	if len(lens) > 0 {
		var hi int64
		for _, c := range lens {
			civ := vrange.OfExpr(c, env)
			if !civ.Bounded() || civ.Hi > 0xFF {
				v.evidence = append(v.evidence, fmt.Sprintf(
					"tainted length %s has range %s: truncated by the 1-byte store", c, civ))
				return v
			}
			if civ.Hi > hi {
				hi = civ.Hi
			}
		}
		v.sanitized = true
		v.evidence = append(v.evidence, fmt.Sprintf(
			"stored length <= %d fits the 1-byte store", hi))
		return v
	}
	v.evidence = append(v.evidence, "tainted length narrowed with no proven bound")
	return v
}

// obsEnv assembles the interval environment for one observation: the
// function's proven ranges, met with bounds re-derived from the
// constraints a pending sink carried up from callees (the carried
// expressions were already substituted into this function's namespace,
// so formal-argument bounds arrive here expressed over the actuals).
func (t *Tracker) obsEnv(o sinkObs, sum *symexec.Summary) vrange.Env {
	if len(o.carried) == 0 {
		return vrange.Env(sum.Ranges)
	}
	carried := symexec.DeriveRanges(o.carried, nil)
	if len(carried) == 0 {
		return vrange.Env(sum.Ranges)
	}
	env := make(vrange.Env, len(sum.Ranges)+len(carried))
	for k, iv := range sum.Ranges {
		env[k] = iv
	}
	for k, iv := range carried {
		if old, ok := env[k]; ok {
			iv = old.Meet(iv)
		}
		env[k] = iv
	}
	return env
}

// contentLenBound returns the proven upper bound of strlen(content) for
// a NUL-terminating copy: every OR-combined alternative of the content
// must have a bounded length symbol, and the weakest bound wins.
func contentLenBound(guard *expr.Expr, env vrange.Env) (int64, bool) {
	if guard == nil {
		return 0, false
	}
	best := int64(-1)
	bounded := eachOrComp(guard, func(c *expr.Expr) bool {
		iv := vrange.OfExpr(expr.Sym(LenSymName(c.Key())), env)
		if iv.Bounded() && iv.Hi > best {
			best = iv.Hi
		}
		return iv.Bounded()
	})
	if !bounded {
		return 0, false
	}
	return best, true
}

// nulSink reports whether the sink's copy writes strlen(content)+1
// bytes (the vocabulary entry's nul flag): a proven bound equal to the
// capacity still overflows by the NUL terminator, so these take the
// strict `<` comparison. Explicit-length sinks write at most their
// length argument and keep `<=`.
func (t *Tracker) nulSink(sink string) bool {
	m, ok := t.vocab.models[sink]
	return ok && m.nul
}

// eachOrComp calls f on e's OR-combined components, left to right,
// while f returns true, and reports whether it always did.
func eachOrComp(e *expr.Expr, f func(*expr.Expr) bool) bool {
	if op, x, y, ok := e.BinOperands(); ok && op == expr.OpOr {
		return eachOrComp(x, f) && eachOrComp(y, f)
	}
	return f(e)
}

// lenComponents returns the strlen-result symbols among e's OR
// components.
func lenComponents(e *expr.Expr) []*expr.Expr {
	var out []*expr.Expr
	eachOrComp(e, func(c *expr.Expr) bool {
		if name, ok := c.SymName(); ok && isLenSym(name) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// mentionsLenSym reports whether e mentions a strlen-result symbol.
func mentionsLenSym(e *expr.Expr) bool {
	return e.AnySym(isLenSym)
}

// isLenSym reports whether a symbol names a strlen result.
func isLenSym(name string) bool { return strings.HasPrefix(name, "len_") }

// guardMarks collects the symbol/key marks a sanitizing constraint must
// touch to count for this observation.
func guardMarks(o sinkObs, ix *constraintIndex) marks {
	m := marks{o.guard.Key()}
	if ix.mentionsLen(o.carried) {
		m.add(LenSymName(o.guard.Key()))
	}
	m.addTaintSyms(o.guard)
	m.addTaintSyms(o.taint)
	return m
}

// magnitudeBound returns the bounding side of a magnitude comparison
// (n < 64, n < y) whose other side is marked; EQ/NE checks (NUL scans)
// do not bound a copy size.
func (m marks) magnitudeBound(c symexec.Constraint) (*expr.Expr, bool) {
	if !isMagnitude(c.Cond) {
		return nil, false
	}
	switch {
	case m.sideMarked(c.L):
		return c.R, true
	case m.sideMarked(c.R):
		return c.L, true
	}
	return nil, false
}

// legacyOverflowGuarded is the pre-interval buffer-overflow check, kept
// verbatim for the `-ablate vrange` mode: a path is sanitized when some
// magnitude comparison (n < 64, n < y) constrains the tainted
// length/content — EQ/NE checks (NUL scans) do not bound a copy size.
// Note the `<=` comparisons against the capacity: the ablation
// deliberately retains the off-by-one acceptance the interval domain
// fixes.
func legacyOverflowGuarded(o sinkObs, ix *constraintIndex) bool {
	if o.guard == nil {
		return false
	}
	// An intrinsic copy bound (scanf conversion width) decides directly:
	// it sanitizes iff it fits the destination buffer.
	if o.boundHint > 0 && o.dstCap > 0 {
		return o.boundHint <= o.dstCap
	}
	// A structurally bounded copy length (masked or shifted) that fits
	// the destination cannot overflow it, tainted or not.
	if o.dstCap > 0 {
		if b, ok := vrange.MaxValue(o.guard); ok && b <= o.dstCap {
			return true
		}
	}
	if o.sink == LoopSink {
		return loopGuarded(ix.cs) || loopGuarded(o.carried)
	}
	marks := guardMarks(o, ix)
	return ix.scan(marks, o.carried, func(c symexec.Constraint) bool {
		other, ok := marks.magnitudeBound(c)
		if !ok {
			return false
		}
		// A constant bound sanitizes only when it fits the destination
		// buffer (a `n < 0x200` check before copying into 64 bytes does
		// not help); symbolic bounds are accepted as the paper does
		// ("n < 64 or n < y, y is a symbolic value").
		b, okC := other.ConstVal()
		return !okC || o.dstCap == 0 || b <= o.dstCap
	})
}

func isMagnitude(c isa.Cond) bool {
	switch c {
	case isa.CondLT, isa.CondLE, isa.CondGT, isa.CondGE:
		return true
	}
	return false
}

// loopGuarded: a loop copy is sanitized when the loop's trip count is
// bounded by a small constant (a fixed-size copy); large or symbolic
// bounds over tainted data are not sanitizing.
const maxSafeLoopBound = 256

func loopGuarded(cs []symexec.Constraint) bool {
	for _, c := range cs {
		if !c.InLoop || !isMagnitude(c.Cond) {
			continue
		}
		vL, okL := c.L.ConstVal()
		vR, okR := c.R.ConstVal()
		switch {
		case okL && okR:
			// Loop-once concretizes induction variables, so the trip-count
			// comparison appears as const-vs-const; the larger value is
			// the loop bound.
			bound := vL
			if vR > bound {
				bound = vR
			}
			if bound > 0 && bound < maxSafeLoopBound {
				return true
			}
		case okR && vR > 0 && vR < maxSafeLoopBound && !c.L.ContainsTaint():
			return true
		case okL && vL > 0 && vL < maxSafeLoopBound && !c.R.ContainsTaint():
			return true
		}
	}
	return false
}

// separatorGuarded: a separator-sink path (command injection, path
// traversal) is sanitized when some byte of the tainted data is compared
// against the sink's separator byte (EQ/NE), or a strchr-style scan was
// recorded.
func separatorGuarded(o sinkObs, ix *constraintIndex, gb byte) bool {
	var taintMarks marks
	taintMarks.addTaintSyms(o.taint)
	var root string
	hasRoot := false
	if o.guard != nil {
		if r := o.guard.RootPointer(); r != nil {
			root, hasRoot = r.SymName()
		}
	}
	// A deref rooted at the guard's root pointer mentions that symbol, so
	// the root joins the index lookup.
	lookup := taintMarks
	if hasRoot {
		lookup = append(slices.Clip(lookup), root)
	}
	return ix.scan(lookup, o.carried, func(c symexec.Constraint) bool {
		if c.Cond != isa.CondEQ && c.Cond != isa.CondNE {
			return false
		}
		var deref *expr.Expr
		if v, ok := c.R.ConstVal(); ok && v == int64(gb) {
			deref = c.L
		} else if v, ok := c.L.ConstVal(); ok && v == int64(gb) {
			deref = c.R
		}
		if deref == nil {
			return false
		}
		if taintMarks.sideMarked(deref) {
			return true
		}
		if r := deref.RootPointer(); r != nil && hasRoot {
			name, ok := r.SymName()
			return ok && name == root
		}
		return false
	})
}
