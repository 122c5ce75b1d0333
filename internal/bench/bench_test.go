package bench

import (
	"bytes"
	"encoding/json"
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

// TestAliasBenchRecords checks the alias-phase microbenchmark's
// deterministic columns: Algorithm 1 must overflow its synthesis budget
// on the dense web (the drops the SSE engine exists to avoid) while the
// class engine stays within budget with a populated intern table. Wall
// columns are load-dependent and deliberately unasserted.
func TestAliasBenchRecords(t *testing.T) {
	var buf bytes.Buffer
	rows, err := AliasBench(&buf, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 workloads, got %d:\n%s", len(rows), buf.String())
	}
	web := rows[1]
	if web.SeqDropped == 0 {
		t.Fatalf("dense web did not overflow Algorithm 1's budget: %+v", web)
	}
	if web.SSEDropped != 0 {
		t.Fatalf("class engine overflowed its budget on the dense web: %+v", web)
	}
	for _, r := range rows {
		if r.PairsIn == 0 || r.Iterations == 0 || r.InternNodes == 0 {
			t.Fatalf("empty microbenchmark row: %+v", r)
		}
		if r.InternHitRate <= 0 || r.InternHitRate >= 1 {
			t.Fatalf("degenerate intern hit rate: %+v", r)
		}
	}
}

func mustScreeningCases(t *testing.T, n int) []corpus.ScreeningCase {
	t.Helper()
	cases, err := corpus.ScreeningCorpus(n, 20180625)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

func dtaintAblated() dataflow.Options { return dataflow.Options{DisableVRange: true} }

func TestFleetOutput(t *testing.T) {
	var buf bytes.Buffer
	rec, err := Fleet(&buf, testScale)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cold", "warm", "TOTAL", "cache: 6 entries, 6 hits, 6 misses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, out)
		}
	}
	// The warm pass must be served entirely from the cache.
	if !strings.Contains(out, "warm    TOTAL                6        0       6") {
		t.Fatalf("warm pass not fully cached:\n%s", out)
	}
	// The returned record mirrors the printed table.
	if len(rec.Passes) != 2 || rec.Passes[0].Name != "cold" || rec.Passes[1].Name != "warm" {
		t.Fatalf("record passes: %+v", rec.Passes)
	}
	cold, warm := rec.Passes[0], rec.Passes[1]
	if cold.Scanned != 6 || warm.Cached != 6 || warm.Scanned != 0 {
		t.Fatalf("record totals: cold %+v warm %+v", cold, warm)
	}
	if cold.WallSeconds <= 0 {
		t.Fatal("cold pass wall not measured")
	}
	// The cold pass analyzed binaries, so its traced stages must include
	// the per-binary pipeline; the warm pass is cache-only.
	for _, stage := range []string{"scan-image", "scan-binary", "parse-image",
		"build-cfg", "function-analysis", "interproc-dataflow"} {
		if cold.StageSeconds[stage] < 0 {
			t.Fatalf("cold stage %q negative", stage)
		}
		if _, ok := cold.StageSeconds[stage]; !ok {
			t.Fatalf("cold pass lacks stage %q: %v", stage, cold.StageSeconds)
		}
	}
	if _, ok := warm.StageSeconds["parse-image"]; ok {
		t.Fatalf("warm pass re-parsed binaries: %v", warm.StageSeconds)
	}
	if rec.Cache.HitRate != 0.5 {
		t.Fatalf("cache hit rate = %v, want 0.5", rec.Cache.HitRate)
	}
}

func TestRecordWrite(t *testing.T) {
	rec := NewRecord(0.05)
	if !rec.Empty() {
		t.Fatal("fresh record not empty")
	}
	rec.AddTable7([]Table7Row{{Binary: "cgibin", Workers: 4, Components: 10, CriticalPath: 3}})
	if rec.Empty() {
		t.Fatal("record with table7 rows reported empty")
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != RecordSchema || back.Scale != 0.05 {
		t.Fatalf("round trip lost header: %+v", back)
	}
	if back.Env.GoVersion == "" || back.Env.GOMAXPROCS <= 0 {
		t.Fatalf("environment not stamped: %+v", back.Env)
	}
	if len(back.Table7) != 1 || back.Table7[0].Binary != "cgibin" {
		t.Fatalf("table7 rows lost: %+v", back.Table7)
	}
}
