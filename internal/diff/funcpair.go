// funcpair.go pairs functions across two versions of a binary. The
// pairing drives cross-version finding identity: a finding persists when
// the new version has "the same function" containing "the same sink",
// even if the vendor renamed the function or the linker moved it.
//
// Two stages:
//
//  1. Exact: functions whose code bytes match — a canonical digest over
//     block shapes and instruction fields, with block starts and direct
//     branch targets expressed relative to the function entry, so a
//     function that merely moved or was renamed still matches. Within a
//     digest group, same-named functions pair first, then the leftovers
//     zip in address order.
//  2. Similarity (EmTaint-style function identity): leftover functions
//     score against each other on callgraph identity (callee/caller name
//     multisets, mapped through already-established pairs), CFG shape,
//     and structsim data-structure layouts; pairs above a threshold are
//     taken greedily in deterministic order. Layouts come from the
//     bottom-up summaries that the scan of each binary, under the diff's
//     own analysis options, has already put in the summary store
//     (dataflow.Layouts).
package diff

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
	"dtaint/internal/structsim"
)

// similarityThreshold is the minimum stage-2 score for a pair.
const similarityThreshold = 0.55

// similarityBudget caps the stage-2 candidate cross product; beyond it
// the leftover functions stay unpaired (their findings classify as
// fixed/new, which is the conservative direction).
const similarityBudget = 4096

// Pairing maps function names across versions.
type Pairing struct {
	OldToNew map[string]string
	NewToOld map[string]string
	// Exact counts stage-1 pairs; Renamed those among them whose names
	// differ; Similar counts stage-2 pairs.
	Exact   int
	Renamed int
	Similar int
}

func newPairing() *Pairing {
	return &Pairing{OldToNew: make(map[string]string), NewToOld: make(map[string]string)}
}

func (p *Pairing) add(oldName, newName string) {
	p.OldToNew[oldName] = newName
	p.NewToOld[newName] = oldName
}

// PairFunctions pairs oldProg's functions with newProg's. opts are the
// analysis options both binaries were scanned with; the similarity stage
// reads layouts from the summaries their scans stored.
func PairFunctions(oldProg, newProg *cfg.Program, opts dataflow.Options) *Pairing {
	p := pairExact(oldProg, newProg)

	// Stage 2: similarity over the leftovers.
	oldLeft := unpaired(oldProg, p.OldToNew)
	newLeft := unpaired(newProg, p.NewToOld)
	if len(oldLeft) == 0 || len(newLeft) == 0 ||
		len(oldLeft)*len(newLeft) > similarityBudget {
		return p
	}
	oldLay := dataflow.Layouts(oldProg, oldLeft, opts)
	newLay := dataflow.Layouts(newProg, newLeft, opts)
	type cand struct {
		score float64
		o, n  string
	}
	var cands []cand
	for _, o := range oldLeft {
		for _, n := range newLeft {
			s := similarityScore(oldProg, newProg, p, o, n, oldLay[o], newLay[n])
			if s >= similarityThreshold {
				cands = append(cands, cand{s, o, n})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].o != cands[j].o {
			return cands[i].o < cands[j].o
		}
		return cands[i].n < cands[j].n
	})
	usedOld := make(map[string]bool)
	usedNew := make(map[string]bool)
	for _, c := range cands {
		if usedOld[c.o] || usedNew[c.n] {
			continue
		}
		usedOld[c.o], usedNew[c.n] = true, true
		p.add(c.o, c.n)
		p.Similar++
	}
	return p
}

// pairExact is stage 1: it pairs the functions whose code digests match.
func pairExact(oldProg, newProg *cfg.Program) *Pairing {
	p := newPairing()
	oldByDigest := digestGroups(oldProg)
	newByDigest := digestGroups(newProg)
	digests := make([]string, 0, len(newByDigest))
	for d := range newByDigest {
		if _, ok := oldByDigest[d]; ok {
			digests = append(digests, d)
		}
	}
	sort.Strings(digests)
	for _, d := range digests {
		olds, news := oldByDigest[d], newByDigest[d]
		// Same-name matches within the group first.
		newSet := make(map[string]bool, len(news))
		for _, n := range news {
			newSet[n] = true
		}
		var oldLeft []string
		for _, o := range olds {
			if newSet[o] {
				p.add(o, o)
				p.Exact++
				newSet[o] = false
				continue
			}
			oldLeft = append(oldLeft, o)
		}
		var newLeft []string
		for _, n := range news {
			if newSet[n] {
				newLeft = append(newLeft, n)
			}
		}
		// Remaining identical-code functions zip in address order (the
		// group slices are built in address order).
		for i := 0; i < len(oldLeft) && i < len(newLeft); i++ {
			p.add(oldLeft[i], newLeft[i])
			p.Exact++
			p.Renamed++
		}
	}
	return p
}

// funcDigest canonicalizes a function's code. Block starts and direct
// control-flow targets are taken relative to the function entry, so the
// digest is invariant under whole-function relocation. Import calls fold
// in the callee name (imports keep their names across versions); local
// calls fold in the relative target, not the callee name, so a function
// whose callees were merely renamed still matches exactly.
func funcDigest(fn *cfg.Function) string {
	h := sha256.New()
	var buf [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	calleeAt := make(map[uint32]string, len(fn.Calls))
	for _, c := range fn.Calls {
		if c.Kind == cfg.CallImport {
			calleeAt[c.Addr] = c.Callee
		}
	}
	put32(uint32(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		put32(b.Start - fn.Addr)
		put32(uint32(len(b.Insts)))
		for _, in := range b.Insts {
			r := in.Raw
			put32(uint32(r.Op)<<16 | uint32(r.Cond)<<8 | uint32(r.Rd))
			put32(uint32(r.Rn)<<16 | uint32(r.Rm))
			if r.HasImm {
				binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.Imm)))
				h.Write(buf[:])
			}
			if name, ok := calleeAt[in.Addr]; ok {
				h.Write([]byte(name))
			} else if r.Target != 0 {
				put32(r.Target - fn.Addr)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestGroups groups a program's function names by code digest, each
// group in address order (Program.Funcs order).
func digestGroups(prog *cfg.Program) map[string][]string {
	out := make(map[string][]string, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		d := funcDigest(fn)
		out[d] = append(out[d], fn.Name)
	}
	return out
}

// unpaired returns the program's function names absent from the pairing
// map, in address order.
func unpaired(prog *cfg.Program, paired map[string]string) []string {
	var out []string
	for _, fn := range prog.Funcs {
		if _, ok := paired[fn.Name]; !ok {
			out = append(out, fn.Name)
		}
	}
	return out
}

// similarityScore combines callgraph identity, CFG shape, and structure
// layouts into one [0,1] score.
func similarityScore(oldProg, newProg *cfg.Program, p *Pairing, o, n string, oldLay, newLay []*structsim.Layout) float64 {
	oldFn, newFn := oldProg.ByName[o], newProg.ByName[n]
	if oldFn == nil || newFn == nil {
		return 0
	}
	// Callgraph identity: callee and caller name multisets, with old-side
	// local names mapped through the established pairing so renamed
	// neighbors still align. Imports keep their names.
	cg := (jaccard(mapNames(callNames(oldProg, oldFn), p.OldToNew), callNames(newProg, newFn)) +
		jaccard(mapNames(oldProg.Callers[o], p.OldToNew), newProg.Callers[n])) / 2

	// CFG shape: block- and instruction-count ratios.
	shape := (ratio(len(oldFn.Blocks), len(newFn.Blocks)) +
		ratio(instCount(oldFn), instCount(newFn))) / 2

	// Layout similarity: the best σ over the functions' layout pairs,
	// clamped to [0,1].
	lay := 0.0
	for _, a := range oldLay {
		for _, b := range newLay {
			if sigma, ok := structsim.Similarity(a, b); ok && sigma > lay {
				lay = sigma
			}
		}
	}
	if lay > 1 {
		lay = 1
	}
	if len(oldLay) == 0 && len(newLay) == 0 {
		// No structure observations on either side: redistribute the
		// layout weight instead of penalizing plain functions.
		return 0.6*cg + 0.4*shape
	}
	return 0.45*cg + 0.35*shape + 0.20*lay
}

// callNames collects a function's direct callee names (locals and
// imports), sorted with duplicates kept.
func callNames(prog *cfg.Program, fn *cfg.Function) []string {
	var out []string
	for _, c := range fn.Calls {
		if c.Kind == cfg.CallLocal || c.Kind == cfg.CallImport {
			out = append(out, c.Callee)
		}
	}
	sort.Strings(out)
	return out
}

// mapNames rewrites names through the pairing map where present.
func mapNames(names []string, m map[string]string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		if mapped, ok := m[name]; ok {
			out[i] = mapped
		} else {
			out[i] = name
		}
	}
	sort.Strings(out)
	return out
}

// jaccard is multiset Jaccard similarity; two empty multisets score 1.
func jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	counts := make(map[string]int, len(a))
	for _, s := range a {
		counts[s]++
	}
	inter := 0
	for _, s := range b {
		if counts[s] > 0 {
			counts[s]--
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// ratio returns min/max of two counts (1 when both are zero).
func ratio(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// instCount totals a function's instructions.
func instCount(fn *cfg.Function) int {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Insts)
	}
	return n
}
