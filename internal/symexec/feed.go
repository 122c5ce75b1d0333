package symexec

import (
	"slices"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/isa"
)

// MayFeedResolution reports whether Analyze, run under the taint
// tracker's library models with no InitialArgs or InitialMem, may record
// in fn's summary what indirect-call resolution reads: a Dispatch, which
// needs a cfg.CallIndirect site, or a FieldObs with a FnTarget, a 4-byte
// store of a constant that bin.FuncAt names. fn also qualifies when one
// of its immediates names a function.
//
// Otherwise a walk over fn's control-flow graph decides. It keeps, for
// each register, the constants the engine may hold there on any path
// and whether it may hold something else, joining predecessors at
// every block until nothing changes. Operations fold in tab as the
// engine's Table.Bin folds them, with two placeholder symbols standing
// for the values that are no constants: one for both operands, for the
// engine's x-x, and two distinct ones. Memory is one set: every load,
// and every value a call may return or write, may be any value stored
// anywhere in fn, any argument, or an OR of constants among them (the
// copy models combine contents by OR). A value with more than a few
// constants may be any constant. tab is scratch the caller may reuse
// across functions.
func MayFeedResolution(fn *cfg.Function, bin *image.Binary, tab *expr.Table) bool {
	for _, cs := range fn.Calls {
		if cs.Kind == cfg.CallIndirect {
			return true
		}
	}
	stores := false
	for _, b := range fn.Blocks {
		for _, in := range b.Insts {
			if in.Raw.HasImm {
				if _, ok := bin.FuncAt(uint32(in.Raw.Imm)); ok {
					return true
				}
			}
			stores = stores || in.Raw.Op == isa.OpSTR
		}
	}
	if !stores || fn.Entry == nil {
		return false
	}
	w := feedWalk{bin: bin, conv: bin.Arch.Conv(), tab: tab,
		p: tab.Sym("feed.p"), q: tab.Sym("feed.q")}
	return w.run(fn)
}

// maxFeedConsts bounds the constants the walk tracks for one value.
const maxFeedConsts = 8

// feedVal is what the walk knows of one value over every path that
// reaches a point.
type feedVal struct {
	consts []int64 // sorted and distinct; never written once set
	sym    bool    // may be an expression that is no constant
	any    bool    // may be any constant
}

var symVal = feedVal{sym: true}

func (v feedVal) equal(o feedVal) bool {
	return v.sym == o.sym && v.any == o.any && slices.Equal(v.consts, o.consts)
}

// union is v or o.
func (v feedVal) union(o feedVal) feedVal {
	v.sym = v.sym || o.sym
	if o.any {
		return feedVal{sym: v.sym, any: true}
	}
	for _, c := range o.consts {
		v = v.with(c)
	}
	return v
}

// with is v that may also be c.
func (v feedVal) with(c int64) feedVal {
	i, found := slices.BinarySearch(v.consts, c)
	switch {
	case v.any || found:
		return v
	case len(v.consts) == maxFeedConsts:
		return feedVal{sym: v.sym, any: true}
	}
	v.consts = slices.Insert(slices.Clip(v.consts), i, c)
	return v
}

type feedRegs [isa.NumRegs]feedVal

type feedWalk struct {
	bin  *image.Binary
	conv isa.CallConv
	tab  *expr.Table
	p, q *expr.Expr
	mem  feedVal // every value a load may read
}

// run walks fn to a fixed point and reports whether a 4-byte store may
// write a constant that names a function.
func (w *feedWalk) run(fn *cfg.Function) bool {
	preds := make([][]int, len(fn.Blocks))
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}
	out := make([]feedRegs, len(fn.Blocks))
	reached := make([]bool, len(fn.Blocks))
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			var st feedRegs
			entered := b == fn.Entry
			if entered {
				for r := range st {
					st[r] = symVal
				}
			}
			for _, p := range preds[b.Index] {
				switch {
				case !reached[p]:
				case !entered:
					st, entered = out[p], true
				default:
					for r := range st {
						st[r] = st[r].union(out[p][r])
					}
				}
			}
			if !entered {
				continue
			}
			mem := w.mem
			for _, in := range b.Insts {
				if w.step(in.Raw, &st) {
					return true
				}
			}
			if !reached[b.Index] || !w.mem.equal(mem) || !st.equal(&out[b.Index]) {
				out[b.Index], reached[b.Index], changed = st, true, true
			}
		}
	}
	return false
}

func (s *feedRegs) equal(o *feedRegs) bool {
	for r := range s {
		if !s[r].equal(o[r]) {
			return false
		}
	}
	return true
}

// step applies one instruction as the engine's exec does, and reports
// whether it is a 4-byte store of a value that may name a function.
func (w *feedWalk) step(in isa.Inst, st *feedRegs) bool {
	switch in.Op {
	case isa.OpMOV:
		st[in.Rd] = w.src(in, st)
	case isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpAND, isa.OpORR, isa.OpEOR, isa.OpLSL, isa.OpLSR:
		st[in.Rd] = w.fold(binOps[in.Op], st[in.Rn], w.src(in, st))
	case isa.OpLDR, isa.OpLDRB:
		st[in.Rd] = symVal.union(w.mem)
	case isa.OpSTR, isa.OpSTRB:
		v := st[in.Rd]
		if in.Op == isa.OpSTR && w.namesFunc(v) {
			return true
		}
		w.mem = w.mem.union(v)
	case isa.OpBL, isa.OpBLX:
		// A library model returns an argument or a fresh symbol, and
		// writes memory contents, arguments, or ORs of them.
		args := w.mem
		for _, r := range w.conv.ArgRegs {
			args = args.union(st[r])
		}
		w.mem = w.orClosure(args)
		st[w.conv.RetReg] = symVal.union(args)
	}
	return false
}

func constVal(c int64) feedVal { return feedVal{consts: []int64{c}} }

func (w *feedWalk) src(in isa.Inst, st *feedRegs) feedVal {
	if in.HasImm {
		return constVal(int64(in.Imm))
	}
	return st[in.Rm]
}

// fold is every value a op b may take.
func (w *feedWalk) fold(op expr.Op, a, b feedVal) feedVal {
	if a.any || b.any {
		return feedVal{sym: true, any: true}
	}
	var out feedVal
	add := func(e *expr.Expr) {
		if c, ok := e.ConstVal(); ok {
			out = out.with(c)
		} else {
			out.sym = true
		}
	}
	t := w.tab
	for _, x := range a.consts {
		for _, y := range b.consts {
			add(t.Bin(op, t.Const(x), t.Const(y)))
		}
		if b.sym {
			add(t.Bin(op, t.Const(x), w.p))
		}
	}
	if a.sym {
		for _, y := range b.consts {
			add(t.Bin(op, w.p, t.Const(y)))
		}
		if b.sym {
			add(t.Bin(op, w.p, w.p))
			add(t.Bin(op, w.p, w.q))
		}
	}
	return out
}

// orClosure is v with every OR of its constants.
func (w *feedWalk) orClosure(v feedVal) feedVal {
	for n := -1; n != len(v.consts) && !v.any; {
		cs := v.consts
		n = len(cs)
		for _, x := range cs {
			for _, y := range cs {
				v = v.union(w.fold(expr.OpOr, constVal(x), constVal(y)))
			}
		}
	}
	return v
}

func (w *feedWalk) namesFunc(v feedVal) bool {
	if v.any {
		return true
	}
	for _, c := range v.consts {
		if _, ok := w.bin.FuncAt(uint32(c)); ok {
			return true
		}
	}
	return false
}
