package corpus

import (
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
)

// TestScreeningPrecisionRecall runs the detector over a randomized corpus
// of vulnerable and sanitized binaries: every vulnerable case must be
// found in the handler (recall 1.0) and no sanitized case may be flagged
// (precision 1.0).
func TestScreeningPrecisionRecall(t *testing.T) {
	cases, err := ScreeningCorpus(120, 7)
	if err != nil {
		t.Fatal(err)
	}
	vulnerableCases, sanitizedCases := 0, 0
	for _, c := range cases {
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res, err := dataflow.Analyze(prog, dataflow.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		found := false
		for _, v := range res.Vulnerabilities() {
			if v.SinkFunc == "handler" && v.Class == c.Class {
				found = true
			}
		}
		switch {
		case c.HasVuln:
			vulnerableCases++
			if !found {
				for _, f := range res.Findings {
					t.Logf("finding: %s", f.String())
				}
				t.Fatalf("%s (%s): vulnerable case missed (recall < 1)", c.Name, c.Shape)
			}
		default:
			sanitizedCases++
			if found {
				for _, f := range res.Findings {
					t.Logf("finding: %s", f.String())
				}
				t.Fatalf("%s (%s): sanitized case flagged (precision < 1)", c.Name, c.Shape)
			}
		}
	}
	// The random split must exercise both sides substantially.
	if vulnerableCases < 30 || sanitizedCases < 30 {
		t.Fatalf("lopsided corpus: %d vulnerable, %d sanitized", vulnerableCases, sanitizedCases)
	}
}

// TestScreeningVRangeInvariant checks the ablation contract: disabling
// the interval value-range domain may flip Sanitized and the finding
// class, but never which source→sink paths are discovered.
func TestScreeningVRangeInvariant(t *testing.T) {
	cases, err := ScreeningCorpus(60, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		on, err := dataflow.Analyze(prog, dataflow.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		off, err := dataflow.Analyze(prog, dataflow.Options{DisableVRange: true})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if len(on.Findings) != len(off.Findings) {
			t.Fatalf("%s: vrange ablation changed path discovery: %d findings on, %d off",
				c.Name, len(on.Findings), len(off.Findings))
		}
		for i := range on.Findings {
			a, b := on.Findings[i], off.Findings[i]
			if a.Sink != b.Sink || a.SinkFunc != b.SinkFunc ||
				a.SinkAddr != b.SinkAddr || a.Source != b.Source ||
				len(a.Path) != len(b.Path) {
				t.Fatalf("%s: finding %d differs beyond verdict: on=%s off=%s",
					c.Name, i, a.String(), b.String())
			}
		}
	}
}

// TestScreeningAblationDegradesPrecision quantifies what the interval
// domain buys: with it the corpus scores precision = recall = 1.0 (the
// test above); without it the fgets-bounded copies are false positives
// (precision drops) and the off-by-one and truncation plants are missed
// (recall drops).
func TestScreeningAblationDegradesPrecision(t *testing.T) {
	cases, err := ScreeningCorpus(120, 7)
	if err != nil {
		t.Fatal(err)
	}
	var tp, fp, fn int
	for _, c := range cases {
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res, err := dataflow.Analyze(prog, dataflow.Options{DisableVRange: true})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		flagged := false
		for _, v := range res.Vulnerabilities() {
			if v.SinkFunc == "handler" {
				flagged = true
			}
		}
		switch {
		case c.HasVuln && flagged:
			tp++
		case !c.HasVuln && flagged:
			fp++
		case c.HasVuln && !flagged:
			fn++
		}
	}
	if fp == 0 {
		t.Fatal("ablated run produced no false positives: the interval domain is not buying precision")
	}
	if fn == 0 {
		t.Fatal("ablated run missed nothing: the off-by-one/truncation classes are not interval-dependent")
	}
	t.Logf("ablated: tp=%d fp=%d fn=%d precision=%.3f recall=%.3f",
		tp, fp, fn, float64(tp)/float64(tp+fp), float64(tp)/float64(tp+fn))
}

func TestScreeningDeterministic(t *testing.T) {
	a, err := ScreeningCorpus(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScreeningCorpus(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].HasVuln != b[i].HasVuln ||
			string(a[i].Binary.Text) != string(b[i].Binary.Text) {
			t.Fatalf("case %d differs across runs", i)
		}
	}
	c, err := ScreeningCorpus(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if string(a[i].Binary.Text) != string(c[i].Binary.Text) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

// TestScreeningDispatchShapesNeedSSE pins the SSE dependence of the two
// indirect-dispatch templates: their vulnerable cases are found by the
// full pipeline (the precision/recall test above) but must be missed
// with the SSE resolver ablated — struct-layout similarity alone cannot
// match a callsite whose table pointer is itself loaded from the object.
func TestScreeningDispatchShapesNeedSSE(t *testing.T) {
	cases, err := ScreeningCorpus(120, 7)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range cases {
		if c.Shape != "fnptr-table-dispatch" && c.Shape != "nested-struct-handoff" {
			continue
		}
		if !c.HasVuln {
			continue
		}
		checked++
		prog, err := cfg.Build(c.Binary)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res, err := dataflow.Analyze(prog, dataflow.Options{DisableSSE: true})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, v := range res.Vulnerabilities() {
			if v.SinkFunc == "handler" {
				t.Fatalf("%s (%s): found without SSE — the template does not require the resolver", c.Name, c.Shape)
			}
		}
	}
	if checked < 4 {
		t.Fatalf("only %d vulnerable dispatch-shape cases drawn; corpus too thin to pin the ablation", checked)
	}
}

func TestScreeningCoversAllTemplates(t *testing.T) {
	cases, err := ScreeningCorpus(120, 7)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]int{}
	for _, c := range cases {
		shapes[c.Shape]++
	}
	if len(shapes) != len(screeningTemplates) {
		t.Fatalf("only %d of %d templates drawn: %v", len(shapes), len(screeningTemplates), shapes)
	}
}
