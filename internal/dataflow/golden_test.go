package dataflow

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
)

// goldenFile pins the complete analysis output of the study images and
// openssl: every Finding field and a digest of every final summary,
// under the default options and the vrange and sse ablations. It guards
// refactors of the analysis core that must not change a single byte of
// output. When a change is meant to alter results, the test writes the
// new rendering next to it (goldenFile + ".got") for review.
const goldenFile = "testdata/golden_study.txt"

// goldenScale is the corpus scale of the golden images.
const goldenScale = 0.05

type goldenUnit struct {
	name   string
	prog   *cfg.Program
	filter func(string) bool
}

func goldenUnits(t *testing.T) []goldenUnit {
	t.Helper()
	var units []goldenUnit
	add := func(name string, bin *image.Binary, filter func(string) bool) {
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, goldenUnit{name: name, prog: prog, filter: filter})
	}
	for _, spec := range corpus.StudyImages() {
		bin, _, err := corpus.BuildBinary(spec, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		add(spec.Product, bin, corpus.ModuleFilter(spec))
	}
	bin, err := corpus.OpenSSL(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	add("openssl", bin, nil)
	return units
}

// goldenModes are the option sets the golden covers: the defaults
// dtaint.New builds (the paper's loop-once heuristic) and the two
// ablations that change the analysis core's code paths.
var goldenModes = []struct {
	name string
	opts Options
}{
	{"default", Options{Symexec: symexec.Options{LoopOnce: true}}},
	{"ablate-vrange", Options{Symexec: symexec.Options{LoopOnce: true}, DisableVRange: true}},
	{"ablate-sse", Options{Symexec: symexec.Options{LoopOnce: true}, DisableSSE: true}},
}

// renderGolden writes one result in the golden's line format: a
// finding per line with every field, then one summary digest per
// function in name order. Summary digests hash the versioned sumstore
// encoding, the canonical bytes of a summary.
func renderGolden(b *bytes.Buffer, mode, unit string, res *Result) {
	fmt.Fprintf(b, "== %s %s findings=%d summaries=%d sinks=%d defpairs=%d truncated=%d\n",
		mode, unit, len(res.Findings), len(res.Summaries), res.SinkCount, res.DefPairCount, res.Truncated)
	for _, f := range res.Findings {
		steps := make([]string, len(f.Path))
		for i, s := range f.Path {
			steps[i] = fmt.Sprintf("%s@%#x:%s", s.Func, s.Addr, s.Note)
		}
		fmt.Fprintf(b, "F %d %s %s %#x %s %#x taint=%s guard=%s path=%s sanitized=%t evidence=%s\n",
			f.Class, f.Sink, f.SinkFunc, f.SinkAddr, f.Source, f.SourceAddr,
			expr.Fmt(f.TaintExpr), expr.Fmt(f.GuardExpr), strings.Join(steps, " <- "),
			f.Sanitized, strings.Join(f.Evidence, " | "))
	}
	names := make([]string, 0, len(res.Summaries))
	for name := range res.Summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "S %s %x\n", name, sha256.Sum256(sumstore.EncodeSummary(res.Summaries[name])))
	}
}

// TestGoldenStudyOutput is the exactness gate: at 1 and at 4 workers,
// under every golden mode, the findings and summaries of the study
// images must match the committed golden byte for byte.
func TestGoldenStudyOutput(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	units := goldenUnits(t)
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		for _, m := range goldenModes {
			for _, u := range units {
				opts := m.opts
				opts.Parallelism = workers
				opts.Filter = u.filter
				res, err := Analyze(u.prog, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", m.name, u.name, err)
				}
				renderGolden(&got, m.name, u.name, res)
			}
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		out := goldenFile + ".got"
		if err := os.WriteFile(out, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("workers=%d: output differs from %s at %s (full output in %s)",
			workers, goldenFile, firstDiff(want, got.Bytes()), filepath.Base(out))
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "end of file"
}
