package sumstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"

	"dtaint/internal/cfg"
)

// Fingerprinter derives content-addressed store keys for one program.
// Every key folds in three layers:
//
//   - the analysis identity: the versioned options fingerprint
//     (dataflow.OptionsFingerprint) plus the binary's ISA — a different
//     option set or architecture never aliases;
//   - the function's content: its decoded instructions block by block
//     (equivalent to the function's code bytes under the decoder), the
//     string- and function-table entries its immediates resolve to
//     (the only binary-wide tables the analysis reads through a
//     function), and its callsite bindings, which include resolved
//     indirect targets when the program is a view that binds them;
//   - for bottom-up component keys, a Merkle chain: the keys of every
//     callee component, computed in condensation index order so each
//     dependency's key exists before it is consumed. A change anywhere
//     in a function's callee cone therefore invalidates every component
//     above it, while phase-1 keys — phase 1 never applies callee
//     summaries — depend on the function alone and survive callee
//     edits.
//
// Each pass is keyed on the program it analyzes: dataflow.Analyze keys
// phase 1 on its input program and the bottom-up pass on the view that
// binds the resolved indirect calls (cfg.Program.WithCallEdges), with
// one Fingerprinter each.
type Fingerprinter struct {
	prog *cfg.Program
	base string // ISA + options fingerprint, folded into every key
}

// NewFingerprinter builds a fingerprinter for prog under the given
// options fingerprint (dataflow.OptionsFingerprint output).
func NewFingerprinter(prog *cfg.Program, optionsFingerprint string) *Fingerprinter {
	return &Fingerprinter{
		prog: prog,
		base: prog.Binary.Arch.String() + "|" + optionsFingerprint,
	}
}

// FuncKey returns the phase-1 store key for one function: its content
// digest under the analysis identity, with no callee chain. Phase 1
// keys only the functions it runs on: those indirect-call resolution
// reads, and those diff pairing finds no bottom-up entry for. It is
// safe for concurrent use.
func (f *Fingerprinter) FuncKey(name string) string {
	h := sha256.New()
	h.Write(f.appendFuncDigest([]byte("p1v1|"+f.base), name))
	return "p1-" + hex.EncodeToString(h.Sum(nil))
}

// CompKeys returns the bottom-up store key of every condensation
// component, indexed like cond.Comps. Keys are computed in condensation
// order — every dependency of Comps[i] has a smaller index, so its key
// is already available when i folds it in. Given need, it keys only
// those components and the components they depend on, and leaves the
// other keys empty.
func (f *Fingerprinter) CompKeys(cond *cfg.Condensation, need ...int) []string {
	// Invert Callers into per-component dependency lists: dep appears in
	// depsOf[i] exactly when the scheduler counts dep in i's in-degree.
	depsOf := make([][]int, len(cond.Comps))
	for dep, callers := range cond.Callers {
		for _, c := range callers {
			depsOf[c] = append(depsOf[c], dep)
		}
	}
	var keyed []bool // nil: key every component
	if len(need) > 0 {
		keyed = make([]bool, len(cond.Comps))
		for stack := slices.Clone(need); len(stack) > 0; {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !keyed[i] {
				keyed[i] = true
				stack = append(stack, depsOf[i]...)
			}
		}
	}
	keys := make([]string, len(cond.Comps))
	var buf []byte
	for i, comp := range cond.Comps {
		if keyed != nil && !keyed[i] {
			continue
		}
		buf = append(append(buf[:0], "buv1|"...), f.base...)
		buf = binary.AppendUvarint(buf, uint64(len(comp)))
		for _, name := range comp {
			buf = f.appendFuncDigest(buf, name)
		}
		sort.Ints(depsOf[i])
		buf = binary.AppendUvarint(buf, uint64(len(depsOf[i])))
		for _, dep := range depsOf[i] {
			buf = append(buf, keys[dep]...)
		}
		sum := sha256.Sum256(buf)
		keys[i] = "bu-" + hex.EncodeToString(sum[:])
	}
	return keys
}

// appendFuncDigest appends one function's analysis-relevant content to
// b: name, address, decoded instructions, the rodata strings and
// function symbols its immediates resolve to, and its callsite
// bindings.
func (f *Fingerprinter) appendFuncDigest(b []byte, name string) []byte {
	fn := f.prog.ByName[name]
	b = appendStr(b, name)
	if fn == nil {
		return b
	}
	bin := f.prog.Binary
	b = binary.AppendUvarint(b, uint64(fn.Addr))
	b = binary.AppendUvarint(b, uint64(len(fn.Blocks)))
	for _, blk := range fn.Blocks {
		b = binary.AppendUvarint(b, uint64(blk.Start))
		b = binary.AppendUvarint(b, uint64(len(blk.Insts)))
		for _, in := range blk.Insts {
			r := in.Raw
			b = append(b, byte(r.Op), byte(r.Cond), byte(r.Rd), byte(r.Rn), byte(r.Rm))
			b = binary.BigEndian.AppendUint32(b, uint32(r.Imm))
			b = append(b, boolByte(r.HasImm))
			b = binary.BigEndian.AppendUint32(b, r.Target)
			b = append(b, 0, 0)
			// The analysis reads two binary-wide tables through constant
			// immediates: rodata strings (library models fetch formats
			// and guard sets via StringAt) and the function table
			// (function-pointer stores resolve via FuncAt). Folding the
			// resolved entries in — rather than whole-section digests —
			// keeps keys stable across unrelated rodata edits while
			// still invalidating on the bytes the analysis can observe.
			if r.HasImm {
				if s, ok := bin.StringAt(uint32(r.Imm)); ok {
					b = appendStr(b, "s:"+s)
				}
				if sym, ok := bin.FuncAt(uint32(r.Imm)); ok {
					b = appendStr(b, "f:"+sym.Name)
				}
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(fn.Calls)))
	for _, cs := range fn.Calls {
		b = binary.AppendUvarint(b, uint64(cs.Addr))
		b = binary.AppendUvarint(b, uint64(cs.Kind))
		b = appendStr(b, cs.Callee)
		b = binary.AppendUvarint(b, uint64(cs.Target))
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
