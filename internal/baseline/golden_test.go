package baseline

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
)

// goldenFile pins the baseline's output on two Table VII binaries that
// it finishes uncapped: the analysis count, the cap flag, and every
// finding's rendering, class and evidence. The dedup of sink
// observations across a root's nested frames decides how many findings
// the top-down traversal reports, so a change to how the tracker keeps
// observation state shows here. On a mismatch the test writes the new
// rendering beside the golden (goldenFile + ".got").
const goldenFile = "testdata/golden_baseline.txt"

// goldenScale is the corpus scale of the golden binaries.
const goldenScale = 0.05

func TestBaselineGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, product := range []string{"DIR-645", "DGN1000"} {
		spec, ok := corpus.SpecByProduct(product)
		if !ok {
			t.Fatalf("unknown product %q", product)
		}
		bin, _, err := corpus.BuildBinary(spec, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", product, err)
		}
		fmt.Fprintf(&got, "== %s analyses=%d capped=%t findings=%d\n",
			product, res.Analyses, res.Capped, len(res.Findings))
		for _, f := range res.Findings {
			fmt.Fprintf(&got, "F %d %s evidence=%s\n", f.Class, f.String(), strings.Join(f.Evidence, " | "))
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	if err := os.WriteFile(goldenFile+".got", got.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("output differs from %s (full output in %s.got)", goldenFile, goldenFile)
}
