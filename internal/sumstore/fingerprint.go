package sumstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
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
// digest under the analysis identity, with no callee chain. Call it
// before the bottom-up pass begins; it is safe for concurrent use.
func (f *Fingerprinter) FuncKey(name string) string {
	h := sha256.New()
	io.WriteString(h, "p1v1|")
	io.WriteString(h, f.base)
	f.writeFuncDigest(h, name)
	return "p1-" + hex.EncodeToString(h.Sum(nil))
}

// CompKeys returns the bottom-up store key of every condensation
// component, indexed like cond.Comps. Keys are computed in condensation
// order — every dependency of Comps[i] has a smaller index, so its key
// is already available when i folds it in.
func (f *Fingerprinter) CompKeys(cond *cfg.Condensation) []string {
	// Invert Callers into per-component dependency lists: dep appears in
	// depsOf[i] exactly when the scheduler counts dep in i's in-degree.
	depsOf := make([][]int, len(cond.Comps))
	for dep, callers := range cond.Callers {
		for _, c := range callers {
			depsOf[c] = append(depsOf[c], dep)
		}
	}
	keys := make([]string, len(cond.Comps))
	for i, comp := range cond.Comps {
		h := sha256.New()
		io.WriteString(h, "buv1|")
		io.WriteString(h, f.base)
		writeUvarint(h, uint64(len(comp)))
		for _, name := range comp {
			f.writeFuncDigest(h, name)
		}
		sort.Ints(depsOf[i])
		writeUvarint(h, uint64(len(depsOf[i])))
		for _, dep := range depsOf[i] {
			io.WriteString(h, keys[dep])
		}
		keys[i] = "bu-" + hex.EncodeToString(h.Sum(nil))
	}
	return keys
}

// writeFuncDigest folds one function's analysis-relevant content into h:
// name, address, decoded instructions, the rodata strings and function
// symbols its immediates resolve to, and its callsite bindings.
func (f *Fingerprinter) writeFuncDigest(h io.Writer, name string) {
	fn := f.prog.ByName[name]
	writeStr(h, name)
	if fn == nil {
		return
	}
	bin := f.prog.Binary
	writeUvarint(h, uint64(fn.Addr))
	writeUvarint(h, uint64(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		writeUvarint(h, uint64(b.Start))
		writeUvarint(h, uint64(len(b.Insts)))
		for _, in := range b.Insts {
			r := in.Raw
			var rec [16]byte
			rec[0] = byte(r.Op)
			rec[1] = byte(r.Cond)
			rec[2] = byte(r.Rd)
			rec[3] = byte(r.Rn)
			rec[4] = byte(r.Rm)
			binary.BigEndian.PutUint32(rec[5:], uint32(r.Imm))
			rec[9] = boolByte(r.HasImm)
			binary.BigEndian.PutUint32(rec[10:], r.Target)
			h.Write(rec[:])
			// The analysis reads two binary-wide tables through constant
			// immediates: rodata strings (library models fetch formats
			// and guard sets via StringAt) and the function table
			// (function-pointer stores resolve via FuncAt). Folding the
			// resolved entries in — rather than whole-section digests —
			// keeps keys stable across unrelated rodata edits while
			// still invalidating on the bytes the analysis can observe.
			if r.HasImm {
				if s, ok := bin.StringAt(uint32(r.Imm)); ok {
					writeStr(h, "s:"+s)
				}
				if sym, ok := bin.FuncAt(uint32(r.Imm)); ok {
					writeStr(h, "f:"+sym.Name)
				}
			}
		}
	}
	writeUvarint(h, uint64(len(fn.Calls)))
	for _, cs := range fn.Calls {
		writeUvarint(h, uint64(cs.Addr))
		writeUvarint(h, uint64(cs.Kind))
		writeStr(h, cs.Callee)
		writeUvarint(h, uint64(cs.Target))
	}
}

func writeUvarint(h io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	h.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func writeStr(h io.Writer, s string) {
	writeUvarint(h, uint64(len(s)))
	io.WriteString(h, s)
}
