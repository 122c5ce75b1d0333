package taint

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
	"dtaint/internal/vrange"
)

// indexOf indexes a bare constraint list, as EndFunction does for a
// summary's constraints.
func indexOf(cs []symexec.Constraint) *constraintIndex { return &constraintIndex{cs: cs} }

// The ref* functions below are the linear verdict scans the constraint
// index replaced, kept as the oracle of
// TestIndexedVerdictMatchesLinearScan: every constraint of the function
// and then every carried one is visited in order, with map-based marks.

func refCheckObs(t *Tracker, o PendingSink, sum *symexec.Summary) verdict {
	all := sum.Constraints[:len(sum.Constraints):len(sum.Constraints)]
	if len(o.Constraints) > 0 {
		all = append(all, o.Constraints...)
	}
	switch {
	case o.Class == ClassCommandInjection || o.Class == ClassPathTraversal:
		v := verdict{class: o.Class}
		if o.Guarded || refSeparatorGuarded(o, all, t.guardByteFor(o)) || t.obsGuarded(o) {
			v.sanitized = true
			if o.Class == ClassCommandInjection {
				v.evidence = append(v.evidence,
					"command separator ';' checked on the tainted data")
			} else {
				v.evidence = append(v.evidence,
					"path climb marker '.' probed on the tainted path")
			}
		}
		return v
	case o.Class == ClassFormatString:
		return verdict{class: o.Class, evidence: []string{
			"attacker-controlled format string reaches a printf-family sink"}}
	case o.Class == ClassLengthTruncation:
		return refCheckTruncation(t, o, sum)
	case t.noVRange:
		v := verdict{class: o.Class, sanitized: o.Guarded || refLegacyOverflowGuarded(o, all)}
		return v
	default:
		return refCheckOverflow(t, o, sum, all)
	}
}

func refCheckOverflow(t *Tracker, o PendingSink, sum *symexec.Summary, cs []symexec.Constraint) verdict {
	v := verdict{class: o.Class}
	if o.Guarded {
		v.sanitized = true
		v.evidence = append(v.evidence, "bound established below the sink")
		return v
	}
	if o.GuardExpr == nil {
		v.evidence = append(v.evidence, "no bound can apply to this sink")
		return v
	}
	nul := t.nulSink(o.Sink)
	if o.BoundHint > 0 && o.DstCap > 0 {
		switch {
		case o.BoundHint <= o.DstCap:
			v.sanitized = true
			v.evidence = append(v.evidence, fmt.Sprintf(
				"intrinsic copy bound %d fits capacity %d", o.BoundHint, o.DstCap))
		case o.BoundHint == o.DstCap+1:
			v.class = ClassOffByOne
			v.evidence = append(v.evidence, fmt.Sprintf(
				"intrinsic copy bound %d overruns capacity %d by exactly one byte",
				o.BoundHint, o.DstCap))
		default:
			v.evidence = append(v.evidence, fmt.Sprintf(
				"intrinsic copy bound %d exceeds capacity %d", o.BoundHint, o.DstCap))
		}
		return v
	}
	if o.Sink == LoopSink {
		if loopGuarded(cs) {
			v.sanitized = true
			v.evidence = append(v.evidence, "loop trip count bounded by a small constant")
		}
		return v
	}
	env := t.obsEnv(o, sum)
	if o.DstCap > 0 {
		if nul {
			if ub, ok := refContentLenBound(o.GuardExpr, env); ok {
				switch {
				case ub < o.DstCap:
					v.sanitized = true
					v.evidence = append(v.evidence, fmt.Sprintf(
						"strlen(content) <= %d proven, +NUL fits capacity %d", ub, o.DstCap))
					return v
				case ub == o.DstCap:
					v.class = ClassOffByOne
					v.evidence = append(v.evidence, fmt.Sprintf(
						"strlen(content) <= %d proven: the NUL terminator lands one byte past capacity %d",
						ub, o.DstCap))
					return v
				default:
					v.evidence = append(v.evidence, fmt.Sprintf(
						"proven length bound %d exceeds capacity %d", ub, o.DstCap))
				}
			}
		} else if ub, ok := vrange.MaxValueEnv(o.GuardExpr, env); ok {
			if ub <= o.DstCap {
				v.sanitized = true
				v.evidence = append(v.evidence, fmt.Sprintf(
					"copy length bounded by %d, fits capacity %d", ub, o.DstCap))
				return v
			}
			v.evidence = append(v.evidence, fmt.Sprintf(
				"copy length bound %d exceeds capacity %d", ub, o.DstCap))
		}
	}
	marks := refGuardMarks(o)
	for _, c := range cs {
		if !isMagnitude(c.Cond) {
			continue
		}
		var other *expr.Expr
		switch {
		case refSideMarked(c.L, marks):
			other = c.R
		case refSideMarked(c.R, marks):
			other = c.L
		default:
			continue
		}
		if b, okC := other.ConstVal(); okC {
			switch {
			case o.DstCap == 0:
				v.sanitized = true
				v.evidence = append(v.evidence, fmt.Sprintf(
					"magnitude check against %d at %#x (capacity unknown)", b, c.Addr))
				return v
			case nul && b == o.DstCap:
				v.class = ClassOffByOne
				v.evidence = append(v.evidence, fmt.Sprintf(
					"guard at %#x admits length == capacity %d: `<=` check is off by one",
					c.Addr, o.DstCap))
				return v
			case (nul && b < o.DstCap) || (!nul && b <= o.DstCap):
				v.sanitized = true
				v.evidence = append(v.evidence, fmt.Sprintf(
					"constant bound %d at %#x fits capacity %d", b, c.Addr, o.DstCap))
				return v
			}
			continue
		}
		v.sanitized = true
		v.evidence = append(v.evidence, fmt.Sprintf(
			"symbolic bound %s at %#x", other, c.Addr))
		return v
	}
	v.evidence = append(v.evidence, "no sanitizing bound on the tainted data")
	return v
}

func refCheckTruncation(t *Tracker, o PendingSink, sum *symexec.Summary) verdict {
	v := verdict{class: ClassLengthTruncation}
	if t.noVRange {
		v.sanitized = true
		return v
	}
	env := t.obsEnv(o, sum)
	if iv := vrange.OfExpr(o.TaintExpr, env); iv.Bounded() && iv.Lo >= 0 && iv.Hi <= 0xFF {
		v.sanitized = true
		v.evidence = append(v.evidence, fmt.Sprintf(
			"stored value in %s fits the 1-byte store", iv))
		return v
	}
	var lens []*expr.Expr
	for _, c := range refOrComps(o.TaintExpr) {
		if name, ok := c.SymName(); ok && strings.HasPrefix(name, "len_") {
			lens = append(lens, c)
		}
	}
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

func refContentLenBound(guard *expr.Expr, env vrange.Env) (int64, bool) {
	comps := refOrComps(guard)
	if len(comps) == 0 {
		return 0, false
	}
	best := int64(-1)
	for _, c := range comps {
		iv := vrange.OfExpr(tab.Sym(LenSymName(c.Key())), env)
		if !iv.Bounded() {
			return 0, false
		}
		if iv.Hi > best {
			best = iv.Hi
		}
	}
	return best, true
}

func refOrComps(e *expr.Expr) []*expr.Expr {
	if e == nil {
		return nil
	}
	if op, x, y, ok := e.BinOperands(); ok && op == expr.OpOr {
		return append(refOrComps(x), refOrComps(y)...)
	}
	return []*expr.Expr{e}
}

func refGuardMarks(o PendingSink) map[string]bool {
	marks := map[string]bool{o.GuardExpr.Key(): true}
	marks[LenSymName(o.GuardExpr.Key())] = true
	for _, s := range o.GuardExpr.TaintSyms() {
		marks[s] = true
	}
	for _, s := range o.TaintExpr.TaintSyms() {
		marks[s] = true
	}
	return marks
}

func refLegacyOverflowGuarded(o PendingSink, cs []symexec.Constraint) bool {
	if o.GuardExpr == nil {
		return false
	}
	if o.BoundHint > 0 && o.DstCap > 0 {
		return o.BoundHint <= o.DstCap
	}
	if o.DstCap > 0 {
		if b, ok := vrange.MaxValue(o.GuardExpr); ok && b <= o.DstCap {
			return true
		}
	}
	marks := refGuardMarks(o)
	if o.Sink == LoopSink {
		return loopGuarded(cs)
	}
	for _, c := range cs {
		if !isMagnitude(c.Cond) {
			continue
		}
		var other *expr.Expr
		switch {
		case refSideMarked(c.L, marks):
			other = c.R
		case refSideMarked(c.R, marks):
			other = c.L
		default:
			continue
		}
		if b, okC := other.ConstVal(); okC {
			if o.DstCap == 0 || b <= o.DstCap {
				return true
			}
			continue
		}
		return true
	}
	return false
}

func refSideMarked(e *expr.Expr, marks map[string]bool) bool {
	return e != nil && (marks[e.Key()] || refMentionsAny(e, marks))
}

func refMentionsAny(e *expr.Expr, marks map[string]bool) bool {
	return e != nil && e.AnySym(func(s string) bool { return marks[s] })
}

func refSeparatorGuarded(o PendingSink, cs []symexec.Constraint, gb byte) bool {
	taintMarks := make(map[string]bool)
	for _, s := range o.TaintExpr.TaintSyms() {
		taintMarks[s] = true
	}
	var roots []string
	if o.GuardExpr != nil {
		if r := o.GuardExpr.RootPointer(); r != nil {
			if name, ok := r.SymName(); ok {
				roots = append(roots, name)
			}
		}
	}
	for _, c := range cs {
		if c.Cond != isa.CondEQ && c.Cond != isa.CondNE {
			continue
		}
		var deref *expr.Expr
		if v, ok := c.R.ConstVal(); ok && v == int64(gb) {
			deref = c.L
		} else if v, ok := c.L.ConstVal(); ok && v == int64(gb) {
			deref = c.R
		}
		if deref == nil {
			continue
		}
		if refSideMarked(deref, taintMarks) {
			return true
		}
		if root := deref.RootPointer(); root != nil {
			if name, ok := root.SymName(); ok {
				for _, r := range roots {
					if r == name {
						return true
					}
				}
			}
		}
	}
	return false
}

func refRelevantConstraints(cs []symexec.Constraint, o PendingSink) []symexec.Constraint {
	marks := make(map[string]bool)
	for _, s := range o.TaintExpr.Syms() {
		marks[s] = true
	}
	if o.GuardExpr != nil {
		for _, s := range o.GuardExpr.Syms() {
			marks[s] = true
		}
	}
	marks[LenSymName(o.TaintExpr.Key())] = true
	if o.GuardExpr != nil {
		marks[LenSymName(o.GuardExpr.Key())] = true
	}
	var out []symexec.Constraint
	for _, c := range cs {
		if refMentionsAny(c.L, marks) || refMentionsAny(c.R, marks) {
			out = append(out, c)
		}
	}
	return out
}

// verdictGen draws functions and observations from a small symbol
// alphabet — taint symbols, formal arguments, a command pointer, length
// symbols of the drawn expressions, derefs, OR combinations — so that
// constraints often mention what an observation marks.
type verdictGen struct {
	r     *rand.Rand
	atoms []*expr.Expr
}

func newVerdictGen(seed int64) *verdictGen {
	return &verdictGen{
		r: rand.New(rand.NewSource(seed)),
		atoms: []*expr.Expr{
			tab.Sym(expr.TaintName("recv", 0x10)),
			tab.Sym(expr.TaintName("getenv", 0x20)),
			tab.Arg(0), tab.Arg(1), tab.Sym("cmdptr"),
		},
	}
}

// value draws an expression of nesting depth at most d.
func (g *verdictGen) value(d int) *expr.Expr {
	a := g.atoms[g.r.Intn(len(g.atoms))]
	if d == 0 {
		return a
	}
	switch g.r.Intn(6) {
	case 0:
		return tab.Deref(tab.Add(g.value(d-1), int64(g.r.Intn(3)*4)))
	case 1:
		return tab.Bin(expr.OpOr, g.value(d-1), g.value(d-1))
	case 2:
		return tab.Sym(LenSymName(g.value(d - 1).Key()))
	case 3:
		return tab.Add(g.value(d-1), int64(g.r.Intn(8)))
	}
	return a
}

var verdictConsts = []int64{0, 1, 15, 16, 17, 63, 64, 65, SemicolonByte, DotByte, 200, 300}

// side draws one constraint side, biased toward the observation's own
// guard: the guard itself, its length symbol, a byte of it, a constant.
func (g *verdictGen) side(guards []*expr.Expr) *expr.Expr {
	gd := guards[g.r.Intn(len(guards))]
	switch g.r.Intn(6) {
	case 0:
		return gd
	case 1:
		return tab.Sym(LenSymName(gd.Key()))
	case 2:
		return tab.Deref(tab.Add(gd, int64(g.r.Intn(4))))
	case 3, 4:
		return tab.Const(verdictConsts[g.r.Intn(len(verdictConsts))])
	}
	return g.value(2)
}

func (g *verdictGen) constraints(n int, guards []*expr.Expr) []symexec.Constraint {
	var cs []symexec.Constraint
	for i := 0; i < n; i++ {
		cs = append(cs, symexec.Constraint{
			L:      g.side(guards),
			R:      g.side(guards),
			Cond:   isa.Cond(g.r.Intn(int(isa.CondLE) + 1)),
			Addr:   uint32(0x100 + 4*i),
			InLoop: g.r.Intn(4) == 0,
		})
	}
	return cs
}

// verdictSinks covers every sink class: NUL-terminating and explicit-
// length copies, the loop and narrow-store structural sinks, both
// separator sinks and the printf family.
var verdictSinks = []struct {
	sink  string
	class Class
}{
	{"strcpy", ClassBufferOverflow},
	{"memcpy", ClassBufferOverflow},
	{"sscanf", ClassBufferOverflow},
	{LoopSink, ClassBufferOverflow},
	{NarrowStoreSink, ClassLengthTruncation},
	{"system", ClassCommandInjection},
	{"fopen", ClassPathTraversal},
	{"printf", ClassFormatString},
}

func (g *verdictGen) obs(guards []*expr.Expr) PendingSink {
	s := verdictSinks[g.r.Intn(len(verdictSinks))]
	o := PendingSink{Class: s.class, Sink: s.sink, SinkAddr: 0x40, TaintExpr: g.value(2)}
	switch g.r.Intn(4) {
	case 0:
		o.GuardExpr = o.TaintExpr
	case 1:
		o.GuardExpr = nil
	default:
		o.GuardExpr = guards[g.r.Intn(len(guards))]
	}
	o.DstCap = []int64{0, 16, 64}[g.r.Intn(3)]
	if g.r.Intn(4) == 0 {
		o.BoundHint = []int64{16, 17, 65}[g.r.Intn(3)]
	}
	o.Guarded = g.r.Intn(8) == 0
	if g.r.Intn(3) == 0 {
		gs := guards
		if o.GuardExpr != nil {
			gs = []*expr.Expr{o.GuardExpr, o.TaintExpr}
		}
		o.Constraints = g.constraints(1+g.r.Intn(3), gs)
	}
	return o
}

// TestIndexedVerdictMatchesLinearScan checks that the indexed scans
// decide every observation exactly as the linear ones did — same
// sanitized flag, class and evidence, same relevant constraints — with
// the value-range refinement on and off, for every sink class, and with
// one index shared by all observations of a function as EndFunction
// shares it.
func TestIndexedVerdictMatchesLinearScan(t *testing.T) {
	g := newVerdictGen(1)
	var sanitized, constraintEvidence, relevant int
	for fn := 0; fn < 400; fn++ {
		var guards []*expr.Expr
		for i := 0; i < 4; i++ {
			guards = append(guards, g.value(2))
		}
		// Half the functions are small, many of them without a length
		// symbol in any constraint.
		n := g.r.Intn(24)
		if g.r.Intn(2) == 0 {
			n = g.r.Intn(3)
		}
		sum := &symexec.Summary{
			Func:        "f",
			Constraints: g.constraints(n, guards),
			Ranges:      map[string]vrange.Interval{},
		}
		for _, gd := range guards[:2] {
			sum.Ranges[LenSymName(gd.Key())] = vrange.Range(0, verdictConsts[g.r.Intn(len(verdictConsts))])
		}
		var obs []PendingSink
		for i := 0; i < 8; i++ {
			obs = append(obs, g.obs(guards))
		}
		for _, noVRange := range []bool{false, true} {
			tr := NewTracker()
			tr.noVRange = noVRange
			tr.BeginFunction("f")
			ix := constraintIndex{cs: sum.Constraints}
			for i, o := range obs {
				got, want := tr.checkObs(o, sum, &ix), refCheckObs(tr, o, sum)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fn %d obs %d (%s, vrange off=%v): indexed %+v, linear %+v",
						fn, i, o.Sink, noVRange, got, want)
				}
				gotRel, wantRel := relevantConstraints(&ix, o), refRelevantConstraints(sum.Constraints, o)
				if !reflect.DeepEqual(gotRel, wantRel) {
					t.Fatalf("fn %d obs %d: relevant constraints: indexed %v, linear %v",
						fn, i, gotRel, wantRel)
				}
				if got.sanitized {
					sanitized++
				}
				for _, e := range got.evidence {
					if strings.Contains(e, " at 0x") {
						constraintEvidence++
					}
				}
				relevant += len(gotRel)
			}
		}
	}
	// The alphabet is small so that scans match; a generator that never
	// matched would compare empty results only.
	if sanitized < 200 || constraintEvidence < 50 || relevant < 500 {
		t.Fatalf("generator too weak: %d sanitized, %d constraint-decided, %d relevant",
			sanitized, constraintEvidence, relevant)
	}
}

// TestTrackerReusesIndex: one tracker ends a function with many
// constraints, then functions with few or none, and must return the
// findings, pending sinks and carried constraints a fresh tracker returns
// for each function. After each EndFunction, the index the tracker keeps
// must hold what an index built fresh over the function's constraints
// holds, so nothing of an earlier function's index survives its reset.
func TestTrackerReusesIndex(t *testing.T) {
	g := newVerdictGen(7)
	var guards []*expr.Expr
	for i := 0; i < 4; i++ {
		guards = append(guards, g.value(2))
	}
	reused := NewTracker()
	var findings, carried int
	for fn, n := range []int{64, 2, 0, 1, 48, 0, 3, 0} {
		name := fmt.Sprintf("f%d", fn)
		sum := &symexec.Summary{Func: name, Constraints: g.constraints(n, guards)}
		var obs []PendingSink
		for i := 0; i < 16; i++ {
			obs = append(obs, g.obs(guards))
		}
		end := func(tr *Tracker) ([]Finding, []PendingSink) {
			tr.BeginFunction(name)
			for _, o := range obs {
				tr.observe(o)
			}
			return tr.EndFunction(sum)
		}
		gotF, gotP := end(reused)
		wantF, wantP := end(NewTracker())
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("%s (%d constraints): reused tracker's findings\n%+v\nfresh tracker's\n%+v", name, n, gotF, wantF)
		}
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("%s (%d constraints): reused tracker's pending sinks\n%+v\nfresh tracker's\n%+v", name, n, gotP, wantP)
		}
		findings += len(gotF)
		for _, p := range gotP {
			carried += len(p.Constraints)
		}

		ix, fresh := &reused.ix, indexOf(sum.Constraints)
		ix.build()
		fresh.build()
		if !maps.Equal(ix.head, fresh.head) || !slices.Equal(ix.postings, fresh.postings) || ix.lens != fresh.lens {
			t.Fatalf("%s: reused index holds %d names and %d postings (lens %v), a fresh one %d and %d (lens %v)",
				name, len(ix.head), len(ix.postings), ix.lens, len(fresh.head), len(fresh.postings), fresh.lens)
		}
	}
	if findings < 20 || carried < 20 {
		t.Fatalf("generator too weak: %d findings, %d carried constraints", findings, carried)
	}
}
