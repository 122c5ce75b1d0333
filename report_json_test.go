package dtaint_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"dtaint"
	"dtaint/internal/taint"
)

// TestReportJSONRoundTrip: a Report — the per-binary type dtaintd
// serves, the report cache stores and dtaint -json prints — survives
// marshal → unmarshal with every field intact, the runtime snapshot
// included. Equality of the vulnerability sets is checked through
// taint.VulnKey, the canonical deduplication key shared by every report
// layer.
func TestReportJSONRoundTrip(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dtaint.New().AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("study image produced no findings")
	}

	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back dtaint.Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("report changed across the round trip:\n got %+v\nwant %+v", &back, rep)
	}

	keys := func(fs []dtaint.Finding) map[string]bool {
		m := make(map[string]bool)
		for _, f := range fs {
			m[taint.VulnKey(f.SinkFunc, f.Sink, f.SinkAddr, string(f.Class))] = true
		}
		return m
	}
	got, want := keys(back.Vulnerabilities()), keys(rep.Vulnerabilities())
	if len(want) == 0 {
		t.Fatal("no vulnerabilities to compare")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vulnerability keys changed: got %v, want %v", got, want)
	}
	if len(back.VulnerablePaths()) != len(rep.VulnerablePaths()) {
		t.Fatalf("vulnerable paths changed: %d vs %d",
			len(back.VulnerablePaths()), len(rep.VulnerablePaths()))
	}
}
