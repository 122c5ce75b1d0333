package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dtaint"
	"dtaint/internal/asm"
	"dtaint/internal/corpus"
	"dtaint/internal/vocab"
)

func writeCorpus(t *testing.T) (fwFile, exeFile string) {
	t.Helper()
	dir := t.TempDir()
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fwFile = filepath.Join(dir, "dir645.fwimg")
	if err := os.WriteFile(fwFile, fw, 0o644); err != nil {
		t.Fatal(err)
	}
	exe, err := dtaint.GenerateOpenSSL(0.05)
	if err != nil {
		t.Fatal(err)
	}
	exeFile = filepath.Join(dir, "openssl.fwelf")
	if err := os.WriteFile(exeFile, exe, 0o644); err != nil {
		t.Fatal(err)
	}
	return fwFile, exeFile
}

func TestRunFirmware(t *testing.T) {
	fw, _ := writeCorpus(t)
	base := cliOptions{fwPath: fw, binPath: "/htdocs/cgibin"}
	if _, err := run(base); err != nil {
		t.Fatal(err)
	}
	// Paths and all modes.
	o := base
	o.paths = true
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	o = base
	o.showAll = true
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	// JSON mode.
	o = base
	o.jsonOut = true
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	// Markdown report mode.
	o = base
	o.mdOut = filepath.Join(t.TempDir(), "report.md")
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(o.mdOut); err != nil || len(data) == 0 {
		t.Fatalf("markdown report not written: %v", err)
	}
	// Ablations.
	o = base
	o.noAlias, o.noSim = true, true
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	// Auto-pick.
	if _, err := run(cliOptions{fwPath: fw}); err != nil {
		t.Fatal(err)
	}
	// Explicit worker count.
	o = base
	o.workers = 4
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunExecutableAndDisassemble(t *testing.T) {
	_, exe := writeCorpus(t)
	if _, err := run(cliOptions{exePath: exe}); err != nil {
		t.Fatal(err)
	}
	if _, err := run(cliOptions{exePath: exe, dis: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(cliOptions{}); err == nil {
		t.Fatal("missing inputs accepted")
	}
	fw, _ := writeCorpus(t)
	if _, err := run(cliOptions{fwPath: fw, binPath: "/ghost"}); err == nil {
		t.Fatal("missing binary path accepted")
	}
	if _, err := run(cliOptions{fwPath: "/no/such/file"}); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not firmware"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(cliOptions{fwPath: junk}); err == nil {
		t.Fatal("junk firmware accepted")
	}
	if _, err := run(cliOptions{exePath: junk}); err == nil {
		t.Fatal("junk executable accepted")
	}
	// A bad log level must be rejected before any analysis runs.
	if _, err := run(cliOptions{fwPath: fw, binPath: "/htdocs/cgibin", logLevel: "loud"}); err == nil {
		t.Fatal("bad log level accepted")
	}
}

// The -exit-code contract: run reports the undeduplicated
// vulnerable-path count so main can exit 2 when it is positive.
func TestRunReturnsVulnerablePathCount(t *testing.T) {
	fw, _ := writeCorpus(t)
	n, err := run(cliOptions{fwPath: fw, binPath: "/htdocs/cgibin"})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("study image reported 0 vulnerable paths")
	}
	// Disassembly finds nothing by definition.
	_, exe := writeCorpus(t)
	n, err = run(cliOptions{exePath: exe, dis: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("disassembly mode reported %d vulnerable paths", n)
	}
}

func TestRunFleetMode(t *testing.T) {
	fw, _ := writeCorpus(t)
	o := cliOptions{fwPath: fw, cacheDir: filepath.Join(t.TempDir(), "cache"), workers: 2}
	n, _, err := runFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("fleet scan reported 0 vulnerable paths")
	}
	// Same cache dir again: served from disk, same totals.
	o.jsonOut = true
	n2, _, err := runFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("cached fleet run reported %d paths, first run %d", n2, n)
	}
}

// The diff-mode -exit-code contract: runDiff returns the NEW finding
// count, so an image diffed against itself yields zero (no exit 2) even
// though the image carries vulnerabilities, while a real version pair
// with introduced findings yields a positive count.
func TestRunDiffExitCodeOnNewFindingsOnly(t *testing.T) {
	fw, _ := writeCorpus(t)
	o := cliOptions{cacheDir: filepath.Join(t.TempDir(), "cache"), workers: 2}
	n, err := runDiff(o, fw, fw)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("self-diff returned %d new findings, want 0 (persisting findings must not trip -exit-code)", n)
	}
	// The same image scanned normally DOES report vulnerable paths —
	// the zero above is the diff classification, not a silent miss.
	if paths, _, err := runFleet(cliOptions{fwPath: fw}); err != nil || paths == 0 {
		t.Fatalf("fleet scan paths/err = %d/%v, want > 0/nil", paths, err)
	}

	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 2, Mutated: 1, SharedFuncs: 8, TailFuncs: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oldFile := filepath.Join(dir, "old.fwimg")
	newFile := filepath.Join(dir, "new.fwimg")
	if err := os.WriteFile(oldFile, vp.Old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newFile, vp.New, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err = runDiff(o, oldFile, newFile)
	if err != nil {
		t.Fatal(err)
	}
	if n != vp.NewVulns {
		t.Fatalf("version-pair diff returned %d new findings, want %d", n, vp.NewVulns)
	}
	// JSON and Markdown renderings of the same diff.
	jo := o
	jo.jsonOut = true
	if _, err := runDiff(jo, oldFile, newFile); err != nil {
		t.Fatal(err)
	}
	mo := o
	mo.mdOut = filepath.Join(dir, "diff.md")
	if _, err := runDiff(mo, oldFile, newFile); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(mo.mdOut); err != nil || !strings.Contains(string(data), "# Firmware diff:") {
		t.Fatalf("markdown diff report not written: %v", err)
	}
}

func TestRunDiffErrors(t *testing.T) {
	fw, _ := writeCorpus(t)
	if _, err := runDiff(cliOptions{}, "/no/such/old", fw); err == nil {
		t.Fatal("missing old image accepted")
	}
	if _, err := runDiff(cliOptions{}, fw, "/no/such/new"); err == nil {
		t.Fatal("missing new image accepted")
	}
	if _, err := runDiff(cliOptions{workers: -1}, fw, fw); err == nil {
		t.Fatal("negative workers accepted")
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not firmware"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runDiff(cliOptions{}, junk, fw); err == nil {
		t.Fatal("junk old image accepted")
	}
}

// TestCheckArgs pins which positional arguments each mode takes: a flag
// written after a positional argument is not parsed, so it must fail
// loudly, naming the argument, instead of being dropped.
func TestCheckArgs(t *testing.T) {
	const flagsFirst = "flags go before positional arguments"
	tests := []struct {
		diff bool
		args []string
		want []string // substrings of the error; nil means accepted
	}{
		{false, nil, nil},
		{false, []string{"stray", "-json"}, []string{`"stray"`, flagsFirst}},
		{false, []string{"-json"}, []string{`"-json"`, flagsFirst}},
		{true, []string{"old.fwimg", "new.fwimg"}, nil},
		{true, []string{"old.fwimg", "new.fwimg", "-json"}, []string{`"-json"`, flagsFirst}},
		{true, []string{"old.fwimg"}, []string{"exactly two image arguments"}},
		{true, nil, []string{"exactly two image arguments"}},
	}
	for _, tt := range tests {
		err := checkArgs(tt.diff, tt.args)
		if (err == nil) != (tt.want == nil) {
			t.Errorf("checkArgs(%v, %q) = %v, want error containing %q", tt.diff, tt.args, err, tt.want)
			continue
		}
		for _, w := range tt.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("checkArgs(%v, %q) = %v, want it to contain %s", tt.diff, tt.args, err, w)
			}
		}
	}
}

func TestRunFleetErrors(t *testing.T) {
	if _, _, err := runFleet(cliOptions{}); err == nil {
		t.Fatal("missing -fw accepted")
	}
	if _, _, err := runFleet(cliOptions{fwPath: "x", workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, _, err := runFleet(cliOptions{fwPath: "/no/such/file"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// -vocab swaps the analysis vocabulary: a spec that drops strcpy from
// the sink list must suppress findings the default vocabulary reports,
// and a malformed spec must abort before any analysis runs.
func TestRunVocabFlag(t *testing.T) {
	fw, _ := writeCorpus(t)
	base := cliOptions{fwPath: fw, binPath: "/htdocs/cgibin"}
	n, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("default vocabulary found nothing to compare against")
	}

	dir := t.TempDir()
	// A vocabulary with sources but no sinks at all: nothing can be
	// reported, so the vulnerable-path count must drop to zero.
	srcOnly := filepath.Join(dir, "sources-only.json")
	if err := os.WriteFile(srcOnly, []byte(`{"version": 1, "functions": [
		{"name": "recv", "kind": "source",
		 "args": [{"type": "int"}, {"type": "char*", "role": "dest"}, {"type": "int", "role": "len"}, {"type": "int"}]}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := base
	o.vocabPath = srcOnly
	n2, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("sink-free vocabulary still reported %d vulnerable paths", n2)
	}

	// Malformed spec: rejected with the line-precise vocab error.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 1, "functions": [
		{"name": "f", "kind": "sinkhole"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o = base
	o.vocabPath = bad
	if _, err := run(o); err == nil || !strings.Contains(err.Error(), "sinkhole") {
		t.Fatalf("malformed vocab error = %v", err)
	}
	// Same rejection on the fleet path.
	if _, _, err := runFleet(cliOptions{fwPath: fw, vocabPath: bad}); err == nil {
		t.Fatal("fleet mode accepted a malformed vocabulary")
	}
	// Missing file.
	o.vocabPath = filepath.Join(dir, "ghost.json")
	if _, err := run(o); err == nil {
		t.Fatal("missing vocab file accepted")
	}
}

// A negative -workers value must be rejected with a clear error, not
// silently mapped to GOMAXPROCS.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	fw, _ := writeCorpus(t)
	_, err := run(cliOptions{fwPath: fw, binPath: "/htdocs/cgibin", workers: -1})
	if err == nil {
		t.Fatal("negative worker count accepted")
	}
	if !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("error does not name the flag: %v", err)
	}
}

// -trace-out must produce Chrome trace_event JSON covering every
// pipeline stage — the Perfetto-loadable artifact from the docs.
func TestRunTraceOut(t *testing.T) {
	fw, _ := writeCorpus(t)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	if _, err := run(cliOptions{fwPath: fw, binPath: "/htdocs/cgibin", traceOut: traceFile}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		names[ev.Name] = true
	}
	// The CLI unpacks the firmware itself (loadExecutable), so the
	// traced pipeline starts at parse-image.
	for _, want := range []string{"parse-image", "build-cfg",
		"function-analysis", "structsim", "interproc-dataflow", "count-sinks"} {
		if !names[want] {
			t.Errorf("trace lacks stage %q (got %v)", want, names)
		}
	}
	if len(names) < 6 {
		t.Fatalf("only %d distinct span names", len(names))
	}
}

// -progress must emit stage lines and per-function percentages.
func TestProgressWriter(t *testing.T) {
	fw, _ := writeCorpus(t)
	raw, err := loadExecutable(fw, "", "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	tracer := dtaint.NewTracer()
	journal := dtaint.NewEventJournal(0)
	var buf strings.Builder
	attachProgress(journal, &buf)
	a := dtaint.New(dtaint.WithTracer(tracer), dtaint.WithEventJournal(journal))
	if _, err := a.AnalyzeExecutable(raw); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dtaint: parse-image...",
		"dtaint: build-cfg done in",
		"dtaint: function-analysis:",
		"(100%)",
		"dtaint: interproc-dataflow done in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output lacks %q:\n%s", want, out)
		}
	}
}

// -trace follows -vocab: a source the spec adds must taint the call's
// return value in the listing, as it does in the analysis.
func TestRunTraceUsesVocabulary(t *testing.T) {
	bin, err := asm.Assemble("vend", `
.arch arm
.import vend_get
.import system
.data key "k"

.func f
  MOV R0, =key
  BL vend_get
  BL system
  BX LR
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "vend.fwelf")
	if err := os.WriteFile(exe, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := *vocab.Default()
	spec.Functions = append(slices.Clone(spec.Functions),
		vocab.Func{Name: "vend_get", Kind: vocab.KindSource, RetTaint: true})
	doc, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	specFile := filepath.Join(dir, "vend.json")
	if err := os.WriteFile(specFile, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	o := cliOptions{exePath: exe, vocabPath: specFile}
	if n, err := run(o); err != nil || n != 1 {
		t.Fatalf("analysis under the spec: %d vulnerable paths, err %v; want 1", n, err)
	}
	v, err := loadVocabulary(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var listing, plain strings.Builder
	if err := runTrace(&listing, "", exe, "", "f", v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listing.String(), "call vend_get, R0 = heap_") ||
		!strings.Contains(listing.String(), "1 definition pairs") {
		t.Fatalf("trace under the spec does not model vend_get as a source:\n%s", listing.String())
	}
	// Without the spec vend_get is an unmodeled import.
	if err := runTrace(&plain, "", exe, "", "f", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "call vend_get, R0 = ret_vend_get_") {
		t.Fatalf("default trace models vend_get:\n%s", plain.String())
	}
}
