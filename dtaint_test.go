package dtaint

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dtaint/internal/dataflow"
	"dtaint/internal/vocab"
)

const testScale = 0.05

func TestQuickstartFlow(t *testing.T) {
	data, err := GenerateStudyFirmware("DIR-645", testScale)
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	rep, err := a.AnalyzeFirmware(data, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Binary != "cgibin" || rep.Arch != "MIPS" {
		t.Fatalf("report header = %+v", rep)
	}
	vulns := rep.Vulnerabilities()
	if len(vulns) != 4 {
		for _, v := range vulns {
			t.Logf("vuln: %s", v)
		}
		t.Fatalf("vulnerabilities = %d, want 4", len(vulns))
	}
	if len(rep.VulnerablePaths()) != 7 {
		t.Fatalf("paths = %d, want 7", len(rep.VulnerablePaths()))
	}
	classes := map[Class]bool{}
	for _, v := range vulns {
		classes[v.Class] = true
		if v.Source == "" || v.SinkFunc == "" || len(v.Path) == 0 {
			t.Fatalf("incomplete finding: %+v", v)
		}
	}
	if !classes[ClassBufferOverflow] || !classes[ClassCommandInjection] {
		t.Fatalf("classes = %v", classes)
	}
}

func TestAnalyzeFirmwareAutoPick(t *testing.T) {
	data, err := GenerateStudyFirmware("DIR-890L", testScale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New().AnalyzeFirmware(data, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Binary != "cgibin" {
		t.Fatalf("auto-picked %q", rep.Binary)
	}
}

func TestAnalyzeFirmwareErrors(t *testing.T) {
	if _, err := New().AnalyzeFirmware([]byte("garbage"), ""); err == nil {
		t.Fatal("garbage accepted")
	}
	data, err := GenerateStudyFirmware("DIR-645", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().AnalyzeFirmware(data, "/no/such/bin"); !errors.Is(err, ErrNoBinary) {
		t.Fatalf("want ErrNoBinary, got %v", err)
	}
	if _, err := GenerateStudyFirmware("GHOST-9000", 1); err == nil {
		t.Fatal("unknown product accepted")
	}
	if _, err := New().AnalyzeExecutable([]byte("not fwelf")); err == nil {
		t.Fatal("bad executable accepted")
	}
}

func TestModuleFilterOption(t *testing.T) {
	data, err := GenerateStudyFirmware("IPC_6201", testScale)
	if err != nil {
		t.Fatal(err)
	}
	a := New(WithFunctionFilter(StudyModuleFilter("IPC_6201")))
	rep, err := a.AnalyzeFirmware(data, "/usr/bin/mwareserver")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FunctionsAnalyzed >= rep.Functions {
		t.Fatalf("filter not applied: %d analyzed of %d", rep.FunctionsAnalyzed, rep.Functions)
	}
	if len(rep.Vulnerabilities()) != 1 {
		t.Fatalf("vulns = %d, want 1", len(rep.Vulnerabilities()))
	}
}

func TestAblationOptions(t *testing.T) {
	data, err := GenerateStudyFirmware("DS-2CD6233F", testScale)
	if err != nil {
		t.Fatal(err)
	}
	filter := StudyModuleFilter("DS-2CD6233F")
	full, err := New(WithFunctionFilter(filter)).AnalyzeFirmware(data, "/usr/bin/centaurus")
	if err != nil {
		t.Fatal(err)
	}
	noAlias, err := New(WithFunctionFilter(filter), WithoutAliasAnalysis()).
		AnalyzeFirmware(data, "/usr/bin/centaurus")
	if err != nil {
		t.Fatal(err)
	}
	noSim, err := New(WithFunctionFilter(filter), WithoutStructSimilarity()).
		AnalyzeFirmware(data, "/usr/bin/centaurus")
	if err != nil {
		t.Fatal(err)
	}
	if len(noAlias.Vulnerabilities()) >= len(full.Vulnerabilities()) {
		t.Fatal("alias ablation lost nothing")
	}
	if len(noSim.Vulnerabilities()) >= len(full.Vulnerabilities()) {
		t.Fatal("structsim ablation lost nothing")
	}
	if full.IndirectResolved == 0 || noSim.IndirectResolved != 0 {
		t.Fatalf("indirect resolution counts: full=%d noSim=%d",
			full.IndirectResolved, noSim.IndirectResolved)
	}
}

func TestOpenSSLHeartbleedPublic(t *testing.T) {
	raw, err := GenerateOpenSSL(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New().AnalyzeExecutable(raw)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, v := range rep.Vulnerabilities() {
		if v.SinkFunc == "tls1_process_heartbeat" && v.Sink == "memcpy" {
			found = true
		}
	}
	if !found {
		t.Fatal("Heartbleed not found through the public API")
	}
}

func TestStudyImagesList(t *testing.T) {
	imgs := StudyImages()
	if len(imgs) != 6 {
		t.Fatalf("study images = %d", len(imgs))
	}
	if imgs[0].Product != "DIR-645" || imgs[0].BinaryPath != "/htdocs/cgibin" {
		t.Fatalf("first image = %+v", imgs[0])
	}
	if imgs[5].Vendor != "Hikvision" || imgs[5].Arch != "ARM" {
		t.Fatalf("last image = %+v", imgs[5])
	}
}

func TestEmulationStudyShape(t *testing.T) {
	stats := EmulationStudy()
	if len(stats) != 8 {
		t.Fatalf("years = %d", len(stats))
	}
	total, emulable := 0, 0
	for _, s := range stats {
		total += s.Total
		emulable += s.Emulable
	}
	if total != 6529 || emulable != 670 {
		t.Fatalf("population %d/%d, want 6529/670", emulable, total)
	}
}

func TestSourcesSinksVocabulary(t *testing.T) {
	// Table I (8 sources, 9 sinks) plus the vocabulary extensions: 3
	// NVRAM getters, 3 printf-family sinks, 3 file-op sinks.
	if len(Sources()) != 11 || len(Sinks()) != 15 {
		t.Fatalf("vocabulary sizes: %d sources, %d sinks", len(Sources()), len(Sinks()))
	}
	// Returned slices are copies.
	Sources()[0] = "mutated"
	if Sources()[0] == "mutated" {
		t.Fatal("Sources leaks internal state")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Class: ClassCommandInjection, Sink: "system", SinkFunc: "handler",
		SinkAddr: 0x1000, Source: "getenv", Path: []string{"handler@0x1000(system)"},
	}
	s := f.String()
	for _, want := range []string{"VULNERABLE", "getenv", "system", "command-injection"} {
		if !strings.Contains(s, want) {
			t.Errorf("finding %q missing %q", s, want)
		}
	}
}

func TestWithStateBudgetAndLoopUnrolling(t *testing.T) {
	data, err := GenerateStudyFirmware("DIR-645", testScale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(WithStateBudget(2, 256), WithLoopUnrolling(2)).
		AnalyzeFirmware(data, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FunctionsAnalyzed == 0 {
		t.Fatal("nothing analyzed under tight budget")
	}
}

// Custom sources and sinks compile into vocabulary entries: the option
// order cannot change the options fingerprint, an entry replaces the
// base entry of its name, and the extended spec is a valid vocabulary
// document with the same fingerprint.
func TestCustomEntriesExtendVocabulary(t *testing.T) {
	custom := []Option{
		WithReturningSource("nvram_get"),
		WithBufferSource("uart_read", 0),
		WithSink("flash_write", ClassBufferOverflow, 1, 2),
		WithSink("vend_exec", ClassCommandInjection, 0, -1),
	}
	reversed := slices.Clone(custom)
	slices.Reverse(reversed)
	a, b := New(custom...), New(reversed...)
	if fa, fb := dataflow.OptionsFingerprint(a.opts, ""), dataflow.OptionsFingerprint(b.opts, ""); fa != fb {
		t.Fatalf("option order changed the fingerprint:\n  %s\n  %s", fa, fb)
	}
	if dataflow.OptionsFingerprint(a.opts, "") == dataflow.OptionsFingerprint(New().opts, "") {
		t.Fatal("custom entries did not change the fingerprint")
	}

	spec := a.opts.Vocab.Spec()
	if got, want := len(spec.Functions), len(vocab.Default().Functions)+3; got != want {
		t.Fatalf("extended spec has %d entries, want %d (nvram_get replaced, three added)", got, want)
	}
	var nvram []vocab.Func
	for _, f := range spec.Functions {
		if f.Name == "nvram_get" {
			nvram = append(nvram, f)
		}
	}
	want := vocab.Func{Name: "nvram_get", Kind: vocab.KindSource, RetTaint: true}
	if len(nvram) != 1 || !reflect.DeepEqual(nvram[0], want) {
		t.Fatalf("nvram_get entries = %+v, want only %+v", nvram, want)
	}

	doc, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := vocab.Parse(doc, "extended.json")
	if err != nil {
		t.Fatalf("extended spec does not validate: %v", err)
	}
	if parsed.Fingerprint() != a.opts.Vocab.Fingerprint() {
		t.Fatal("re-parsed extended spec has a different fingerprint")
	}
}
