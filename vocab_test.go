package dtaint_test

import (
	"strings"
	"testing"

	"dtaint"
	"dtaint/internal/asm"
)

// Vendor firmware has input wrappers and sinks beyond Table I; the
// analyzer accepts custom vocabulary entries for them.
func TestCustomVocabulary(t *testing.T) {
	src := `
.arch arm
.import nvram_get
.import uart_read
.import wifi_set_ssid
.data key "wl_ssid"

.func set_ssid_from_nvram
  MOV R0, =key
  BL nvram_get
  BL wifi_set_ssid
  BX LR
.endfunc

.func read_uart_cmd
  SUB SP, SP, #0x110
  ADD R0, SP, #8
  MOV R1, #0x100
  BL uart_read
  ADD R0, SP, #8
  BL wifi_set_ssid
  BX LR
.endfunc
`
	bin, err := asm.Assemble("vendor", src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Without the custom vocabulary: nothing is found.
	plain, err := dtaint.New().AnalyzeExecutable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plain.Vulnerabilities()); n != 0 {
		t.Fatalf("default vocabulary found %d vulns in vendor-only code", n)
	}

	// With nvram_get/uart_read as sources and wifi_set_ssid as a sink,
	// both flows are vulnerabilities.
	a := dtaint.New(
		dtaint.WithReturningSource("nvram_get"),
		dtaint.WithBufferSource("uart_read", 0),
		dtaint.WithSink("wifi_set_ssid", dtaint.ClassBufferOverflow, 0, -1),
	)
	rep, err := a.AnalyzeExecutable(raw)
	if err != nil {
		t.Fatal(err)
	}
	vulns := rep.Vulnerabilities()
	if len(vulns) != 2 {
		for _, v := range vulns {
			t.Logf("vuln: %s", v)
		}
		t.Fatalf("custom vocabulary found %d vulns, want 2", len(vulns))
	}
	sources := map[string]bool{}
	for _, v := range vulns {
		if v.Sink != "wifi_set_ssid" {
			t.Fatalf("wrong sink: %s", v.Sink)
		}
		sources[v.Source] = true
	}
	if !sources["nvram_get"] || !sources["uart_read"] {
		t.Fatalf("sources = %v", sources)
	}
	// Custom sinks count toward the static sink census.
	if rep.SinkCount != 2 {
		t.Fatalf("sink count = %d, want 2", rep.SinkCount)
	}
}

// miniVocab is a hand-written subset of the default vocabulary, large
// enough to produce findings on the study firmware but with a distinct
// content fingerprint.
const miniVocab = `{"version": 1, "functions": [
	{"name": "read", "kind": "source", "ret": "int",
	 "args": [{"type": "int"}, {"type": "ptr", "role": "dest"}, {"type": "int", "role": "len"}]},
	{"name": "recv", "kind": "source", "ret": "int",
	 "args": [{"type": "int"}, {"type": "ptr", "role": "dest"}, {"type": "int", "role": "len"}]},
	{"name": "getenv", "kind": "source", "ret": "char*", "retTaint": true,
	 "args": [{"type": "char*"}]},
	{"name": "strcpy", "kind": "sink", "class": "buffer-overflow", "ret": "char*", "nul": true,
	 "args": [{"type": "char*", "role": "dest"}, {"type": "char*", "role": "src"}]},
	{"name": "sprintf", "kind": "sink", "class": "buffer-overflow", "ret": "int", "nul": true, "variadic": "src",
	 "args": [{"type": "char*", "role": "dest"}, {"type": "char*", "role": "format"}]},
	{"name": "system", "kind": "sink", "class": "command-injection", "guardByte": ";",
	 "args": [{"type": "char*", "role": "exec"}]},
	{"name": "strlen", "kind": "model", "model": "len-of", "ret": "int",
	 "args": [{"type": "char*", "role": "src"}]},
	{"name": "strchr", "kind": "model", "model": "byte-scan", "ret": "char*",
	 "args": [{"type": "char*", "role": "src"}, {"type": "int", "role": "byte"}]},
	{"name": "atoi", "kind": "model", "model": "parse-int", "ret": "int",
	 "args": [{"type": "char*", "role": "src"}]},
	{"name": "malloc", "kind": "model", "model": "alloc", "ret": "ptr",
	 "args": [{"type": "int", "role": "len"}]}
]}`

// The summary store is keyed by the vocabulary fingerprint: a rerun
// with an independently parsed but identical spec replays warm, while
// a semantically different spec provably misses every cached summary.
func TestVocabularySummaryStoreKeying(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dtaint.NewSummaryStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(doc string) *dtaint.Vocabulary {
		v, err := dtaint.ParseVocabulary([]byte(doc), "mini.json")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	cold, err := dtaint.New(dtaint.WithSummaryStore(store), dtaint.WithVocabulary(parse(miniVocab))).
		AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Vulnerabilities()) == 0 {
		t.Fatal("mini vocabulary found nothing; the keying assertions below would be vacuous")
	}
	st := store.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold run should populate the store: %+v", st)
	}

	// Identical spec, parsed and compiled independently: warm replay.
	warm, err := dtaint.New(dtaint.WithSummaryStore(store), dtaint.WithVocabulary(parse(miniVocab))).
		AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	warmSt := store.Stats()
	if warmSt.Hits == st.Hits {
		t.Fatal("identical vocabulary did not replay from the store")
	}
	if warmSt.Misses != st.Misses {
		t.Fatalf("identical vocabulary missed the store %d times", warmSt.Misses-st.Misses)
	}
	cw, ww := vulnKeys(cold.Findings), vulnKeys(warm.Findings)
	if len(cw) != len(ww) {
		t.Fatalf("warm replay changed the findings: %d vs %d", len(ww), len(cw))
	}
	for i := range cw {
		if cw[i] != ww[i] {
			t.Fatalf("warm finding %d = %s, want %s", i, ww[i], cw[i])
		}
	}

	// A semantically changed vocabulary (one extra sink) must not be
	// served summaries computed under the old one: zero hits, all misses.
	changed := strings.Replace(miniVocab,
		`{"name": "system",`,
		`{"name": "popen", "kind": "sink", "class": "command-injection", "guardByte": ";",
	 "args": [{"type": "char*", "role": "exec"}, {"type": "char*"}]},
	{"name": "system",`, 1)
	if _, err := dtaint.New(dtaint.WithSummaryStore(store), dtaint.WithVocabulary(parse(changed))).
		AnalyzeFirmware(fw, "/htdocs/cgibin"); err != nil {
		t.Fatal(err)
	}
	chSt := store.Stats()
	if chSt.Hits != warmSt.Hits {
		t.Fatalf("changed vocabulary got %d hits from the old vocabulary's summaries", chSt.Hits-warmSt.Hits)
	}
	if chSt.Misses == warmSt.Misses {
		t.Fatal("changed vocabulary recorded no misses — did it analyze at all?")
	}
}

// A custom vocabulary must not perturb the engine's determinism: the
// findings list is bit-identical at 1 and 8 workers.
func TestVocabularyDeterministicAcrossWorkers(t *testing.T) {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*dtaint.Report, 2)
	for i, workers := range []int{1, 8} {
		v, err := dtaint.ParseVocabulary([]byte(miniVocab), "mini.json")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dtaint.New(dtaint.WithVocabulary(v), dtaint.WithParallelism(workers)).
			AnalyzeFirmware(fw, "/htdocs/cgibin")
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	a, b := reports[0], reports[1]
	if len(a.Findings) == 0 {
		t.Fatal("no findings to compare")
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("worker counts disagree: %d vs %d findings", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if a.Findings[i].String() != b.Findings[i].String() {
			t.Fatalf("finding %d differs across worker counts:\n  w1: %s\n  w8: %s",
				i, a.Findings[i], b.Findings[i])
		}
	}
}

// A custom sink with a length argument is sanitized by a bound check on
// that argument.
func TestCustomSinkLengthGuard(t *testing.T) {
	src := `
.arch arm
.import nvram_get
.import strlen
.import flash_write
.data key "cfg"

.func unchecked
  MOV R0, =key
  BL nvram_get
  MOV R4, R0
  MOV R0, #0
  MOV R1, R4
  BL strlen
  MOV R2, R0
  MOV R0, #0
  MOV R1, R4
  BL flash_write
  BX LR
.endfunc

.func checked
  MOV R0, =key
  BL nvram_get
  MOV R4, R0
  MOV R0, R4
  BL strlen
  MOV R5, R0
  CMP R5, #0x40
  BGE out
  MOV R0, #0
  MOV R1, R4
  MOV R2, R5
  BL flash_write
out:
  BX LR
.endfunc
`
	bin, err := asm.Assemble("vendor2", src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	a := dtaint.New(
		dtaint.WithReturningSource("nvram_get"),
		dtaint.WithSink("flash_write", dtaint.ClassBufferOverflow, 1, 2),
	)
	rep, err := a.AnalyzeExecutable(raw)
	if err != nil {
		t.Fatal(err)
	}
	var uncheckedHit, checkedHit bool
	for _, v := range rep.VulnerablePaths() {
		switch v.SinkFunc {
		case "unchecked":
			uncheckedHit = true
		case "checked":
			checkedHit = true
		}
	}
	if !uncheckedHit {
		for _, f := range rep.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatal("unchecked flash_write not reported")
	}
	if checkedHit {
		t.Fatal("length-checked flash_write reported")
	}
}

// vendorShapes exercises every custom-vocabulary sink class and both
// source kinds in one vendor binary: command sinks plain, guarded by a
// ';' scan, and guarded in the caller of a helper; a format sink; path
// sinks plain and guarded by a '.' scan; buffer sinks with and without
// a length argument, the bounded one both unchecked and checked.
const vendorShapes = `
.arch arm
.import vend_nv_get
.import vend_recv
.import vend_exec
.import vend_log
.import vend_open
.import vend_store
.import vend_copy
.import strchr
.import strlen
.data key "wan_cmd"

.func exec_plain
  MOV R0, =key
  BL vend_nv_get
  BL vend_exec
  BX LR
.endfunc

.func exec_checked
  MOV R0, =key
  BL vend_nv_get
  MOV R5, R0
  MOV R1, #0x3B
  BL strchr
  CMP R0, #0
  BNE out1
  MOV R0, R5
  BL vend_exec
out1:
  BX LR
.endfunc

.func exec_helper
  BL vend_exec
  BX LR
.endfunc

.func exec_caller_checked
  MOV R0, =key
  BL vend_nv_get
  MOV R5, R0
  MOV R1, #0x3B
  BL strchr
  CMP R0, #0
  BNE out2
  MOV R0, R5
  BL exec_helper
out2:
  BX LR
.endfunc

.func log_plain
  MOV R0, =key
  BL vend_nv_get
  MOV R1, R0
  MOV R0, #3
  BL vend_log
  BX LR
.endfunc

.func open_plain
  SUB SP, SP, #0x110
  MOV R0, #0
  ADD R1, SP, #8
  MOV R2, #0x100
  BL vend_recv
  ADD R0, SP, #8
  MOV R1, #0
  BL vend_open
  BX LR
.endfunc

.func open_checked
  SUB SP, SP, #0x110
  MOV R0, #0
  ADD R1, SP, #8
  MOV R2, #0x100
  BL vend_recv
  ADD R0, SP, #8
  MOV R1, #0x2E
  BL strchr
  CMP R0, #0
  BNE out3
  ADD R0, SP, #8
  MOV R1, #0
  BL vend_open
out3:
  BX LR
.endfunc

.func store_unchecked
  MOV R0, =key
  BL vend_nv_get
  MOV R4, R0
  BL strlen
  MOV R2, R0
  MOV R0, #0
  MOV R1, R4
  BL vend_store
  BX LR
.endfunc

.func store_checked
  MOV R0, =key
  BL vend_nv_get
  MOV R4, R0
  BL strlen
  MOV R5, R0
  CMP R5, #0x40
  BGE out4
  MOV R0, #0
  MOV R1, R4
  MOV R2, R5
  BL vend_store
out4:
  BX LR
.endfunc

.func copy_plain
  SUB SP, SP, #0x110
  MOV R0, #0
  ADD R1, SP, #8
  MOV R2, #0x100
  BL vend_recv
  ADD R0, SP, #8
  BL vend_copy
  BX LR
.endfunc
`

// Custom sources and sinks give the same verdicts for every sink class
// and both source kinds, whether the vocabulary is implicit or set
// before or after them.
func TestCustomVocabularyShapes(t *testing.T) {
	bin, err := asm.Assemble("vendor3", vendorShapes)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	custom := []dtaint.Option{
		dtaint.WithReturningSource("vend_nv_get"),
		dtaint.WithBufferSource("vend_recv", 1),
		dtaint.WithSink("vend_exec", dtaint.ClassCommandInjection, 0, -1),
		dtaint.WithSink("vend_log", dtaint.ClassFormatString, 1, -1),
		dtaint.WithSink("vend_open", dtaint.ClassPathTraversal, 0, -1),
		dtaint.WithSink("vend_store", dtaint.ClassBufferOverflow, 1, 2),
		dtaint.WithSink("vend_copy", dtaint.ClassBufferOverflow, 0, -1),
	}
	orders := []struct {
		name string
		opts []dtaint.Option
	}{
		{"implicit", custom},
		{"vocabulary-first", append([]dtaint.Option{dtaint.WithVocabulary(dtaint.DefaultVocabulary())}, custom...)},
		{"vocabulary-last", append(append([]dtaint.Option(nil), custom...), dtaint.WithVocabulary(dtaint.DefaultVocabulary()))},
	}
	noBound := []string{"no sanitizing bound on the tainted data"}
	semicolon := []string{"command separator ';' checked on the tainted data"}
	want := []struct {
		line     string
		class    dtaint.Class
		evidence []string
	}{
		{"[VULNERABLE] vend_recv -> vend_copy in copy_plain@0x10290 (buffer-overflow) via copy_plain@0x10290(vend_copy)",
			dtaint.ClassBufferOverflow, noBound},
		{"[sanitized] vend_nv_get -> vend_exec in exec_helper@0x10070 (command-injection) via exec_helper@0x10070(vend_exec) <- exec_caller_checked@0x100c0(call exec_helper)",
			dtaint.ClassCommandInjection, semicolon},
		{"[sanitized] vend_nv_get -> vend_exec in exec_checked@0x10060 (command-injection) via exec_checked@0x10060(vend_exec)",
			dtaint.ClassCommandInjection, semicolon},
		{"[VULNERABLE] vend_nv_get -> vend_exec in exec_plain@0x10010 (command-injection) via exec_plain@0x10010(vend_exec)",
			dtaint.ClassCommandInjection, nil},
		{"[VULNERABLE] vend_nv_get -> vend_log in log_plain@0x100f0 (format-string) via log_plain@0x100f0(vend_log)",
			dtaint.ClassFormatString, []string{"attacker-controlled format string reaches a printf-family sink"}},
		{"[sanitized] vend_recv -> vend_open in open_checked@0x101a8 (path-traversal) via open_checked@0x101a8(vend_open)",
			dtaint.ClassPathTraversal, []string{"path climb marker '.' probed on the tainted path"}},
		{"[VULNERABLE] vend_recv -> vend_open in open_plain@0x10138 (path-traversal) via open_plain@0x10138(vend_open)",
			dtaint.ClassPathTraversal, nil},
		{"[sanitized] vend_nv_get -> vend_store in store_checked@0x10250 (buffer-overflow) via store_checked@0x10250(vend_store)",
			dtaint.ClassBufferOverflow, []string{"magnitude check against 64 at 0x10230 (capacity unknown)"}},
		{"[VULNERABLE] vend_nv_get -> vend_store in store_unchecked@0x101f0 (buffer-overflow) via store_unchecked@0x101f0(vend_store)",
			dtaint.ClassBufferOverflow, noBound},
	}
	for _, o := range orders {
		rep, err := dtaint.New(o.opts...).AnalyzeExecutable(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Findings) != len(want) {
			for _, f := range rep.Findings {
				t.Logf("%s: finding %s", o.name, f)
			}
			t.Fatalf("%s: %d findings, want %d", o.name, len(rep.Findings), len(want))
		}
		for i, w := range want {
			f := rep.Findings[i]
			if f.String() != w.line || f.Class != w.class ||
				strings.Join(f.Evidence, "|") != strings.Join(w.evidence, "|") {
				t.Errorf("%s: finding %d = %s (%s) %q, want %s (%s) %q",
					o.name, i, f, f.Class, f.Evidence, w.line, w.class, w.evidence)
			}
		}
		if rep.SinkCount != 9 {
			t.Errorf("%s: sink count = %d, want 9", o.name, rep.SinkCount)
		}
	}
}
