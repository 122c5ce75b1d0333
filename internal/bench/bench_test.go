package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/symexec"
)

const testScale = 0.05

func TestFigure1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"2009", "2016", "Total   6529       670"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strcpy", "recvfrom", "websGetVar", "loop"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table 1 missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, testScale); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DIR-645", "DS-2CD6233F", "MIPS", "ARM"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table 2 missing %q", want)
		}
	}
}

func TestStudyTables(t *testing.T) {
	runs, err := RunStudy(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("runs = %d", len(runs))
	}
	var buf bytes.Buffer
	if err := Table3(&buf, runs); err != nil {
		t.Fatal(err)
	}
	// Detection columns must match the paper exactly (x/x pairs).
	for _, want := range []string{"7/7", "19/19", "30/30", "4/4", "6/6"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table 3 missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := Table4(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "false") {
		t.Fatalf("table 4 has undetected CVEs:\n%s", buf.String())
	}
	for _, cve := range []string{"CVE-2013-7389", "CVE-2015-2051", "CVE-2016-5681", "CVE-2017-6334", "CVE-2017-6077", "EDB-ID:43055"} {
		if !strings.Contains(buf.String(), cve) {
			t.Fatalf("table 4 missing %s", cve)
		}
	}
	buf.Reset()
	if err := Table5(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total zero-days: 13 (paper: 13)") {
		t.Fatalf("table 5 totals wrong:\n%s", buf.String())
	}
}

func TestTable6Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6(&buf, testScale); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Static symbolic analysis") {
		t.Fatalf("table 6 malformed:\n%s", buf.String())
	}
}

func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline run in -short mode")
	}
	rows, err := RunTable7(0.05, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The headline result's shape: the bottom-up DDG beats the
		// top-down baseline on every workload even at toy scale with the
		// baseline's re-analysis capped; cmd/benchtab shows the orders of
		// magnitude at real scale.
		if r.BaseDDG < 3*r.DTaintDDG {
			t.Errorf("%s: baseline DDG %v not >> DTaint DDG %v (analyses %d)",
				r.Binary, r.BaseDDG, r.DTaintDDG, r.BaselineAnalyses)
		}
		if r.BaselineAnalyses <= 0 {
			t.Errorf("%s: baseline did nothing", r.Binary)
		}
		if r.Workers < 4 {
			t.Errorf("%s: parallel DDG ran with %d workers, want >= 4", r.Binary, r.Workers)
		}
		if r.Components <= 0 || r.CriticalPath <= 0 || r.CriticalPath > r.Components {
			t.Errorf("%s: bad scheduler stats: %d components, critical path %d",
				r.Binary, r.Components, r.CriticalPath)
		}
		if r.DTaintDDGSeq <= 0 {
			t.Errorf("%s: sequential DDG reference not measured", r.Binary)
		}
	}
}

func TestAblationsOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablations(&buf, testScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vulns 6/6") {
		t.Fatalf("full pipeline should find 6/6:\n%s", out)
	}
	if !strings.Contains(out, "vulns 5/6") {
		t.Fatalf("ablations should lose one vuln each:\n%s", out)
	}
	// The loop-once row must run the paper's heuristic, the options
	// dtaint.New builds, and explore fewer states than unrolling.
	spec, _ := corpus.SpecByProduct("DS-2CD6233F")
	bin, _, err := corpus.BuildBinary(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Analyze(prog, dataflow.Options{
		Symexec: symexec.Options{LoopOnce: true}, Filter: corpus.ModuleFilter(spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	states := func(row string) int {
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, row) {
				continue
			}
			var n int
			if _, err := fmt.Sscanf(line[strings.Index(line, "states"):], "states %d", &n); err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			return n
		}
		t.Fatalf("no %q row:\n%s", row, out)
		return 0
	}
	once, unrolled := states("loop-once heuristic"), states("loops unrolled 3x")
	if want := statesExplored(res); once != want {
		t.Fatalf("loop-once row explored %d states, want %d (LoopOnce on):\n%s", once, want, out)
	}
	if once >= unrolled {
		t.Fatalf("loop-once row explored %d states, unrolling %d: the heuristic should save work", once, unrolled)
	}
}

// TestScreeningOutput asserts the headline claim of the interval domain:
// the full pipeline scores precision = recall = 1.0 on the screening
// corpus, and ablating the domain measurably costs precision.
func TestScreeningOutput(t *testing.T) {
	var buf bytes.Buffer
	stats, err := Screening(&buf, 60)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Precision != 1.0 || stats.Recall != 1.0 {
		t.Fatalf("full pipeline not perfect (precision %.3f, recall %.3f):\n%s",
			stats.Precision, stats.Recall, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "full pipeline") || !strings.Contains(out, "ablated (-ablate vrange)") ||
		!strings.Contains(out, "ablated (-ablate sse)") {
		t.Fatalf("screening must print all three configurations:\n%s", out)
	}
	// The ablated line must show degraded precision: some fp > 0.
	ablated, err := screeningRun(mustScreeningCases(t, 60), dtaintAblated())
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Precision >= 1.0 {
		t.Fatalf("vrange ablation did not degrade precision: %+v", ablated)
	}
	// Ablating the SSE resolver must cost recall (the indirect-dispatch
	// templates become unreachable) while keeping precision perfect: the
	// resolver only adds true paths, never false ones.
	noSSE, err := screeningRun(mustScreeningCases(t, 60), dataflow.Options{DisableSSE: true})
	if err != nil {
		t.Fatal(err)
	}
	if noSSE.Recall >= 1.0 {
		t.Fatalf("sse ablation did not degrade recall: %+v", noSSE)
	}
	if noSSE.Precision != 1.0 {
		t.Fatalf("sse ablation cost precision, want only recall: %+v", noSSE)
	}
}

// TestScreeningAblationRows pins the exact confusion counts of the two
// ablation rows benchtab -screen prints, at its corpus size and seed.
func TestScreeningAblationRows(t *testing.T) {
	cases := mustScreeningCases(t, ScreeningSize)
	for _, row := range []struct {
		name           string
		opts           dataflow.Options
		tp, fp, fn, tn int
	}{
		{"-ablate vrange", dtaintAblated(), 89, 5, 11, 95},
		{"-ablate sse", dataflow.Options{DisableSSE: true}, 85, 0, 15, 100},
	} {
		s, err := screeningRun(cases, row.opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.TP != row.tp || s.FP != row.fp || s.FN != row.fn || s.TN != row.tn {
			t.Errorf("%s: tp %d fp %d fn %d tn %d, want tp %d fp %d fn %d tn %d",
				row.name, s.TP, s.FP, s.FN, s.TN, row.tp, row.fp, row.fn, row.tn)
		}
	}
}

func mustScreeningCases(t *testing.T, n int) screeningCorpus {
	t.Helper()
	cases, err := newScreeningCorpus(n)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

func dtaintAblated() dataflow.Options { return dataflow.Options{DisableVRange: true} }
