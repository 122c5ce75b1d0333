package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource writes one fixture file into a temp module tree and lints it.
func lintSource(t *testing.T, src string) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintTree([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func wantRule(t *testing.T, findings []string, rule string, n int) {
	t.Helper()
	got := 0
	for _, f := range findings {
		if strings.Contains(f, rule+":") {
			got++
		}
	}
	if got != n {
		t.Fatalf("want %d %s finding(s), got %d: %v", n, rule, got, findings)
	}
}

func TestUnorderedMapRangeFlagged(t *testing.T) {
	findings := lintSource(t, `package p

func leak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	wantRule(t, findings, "unordered-map-range", 1)
}

func TestCollectThenSortClean(t *testing.T) {
	findings := lintSource(t, `package p

import "sort"

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
	wantRule(t, findings, "unordered-map-range", 0)
}

func TestOrderInsensitiveBodiesClean(t *testing.T) {
	findings := lintSource(t, `package p

func aggregate(m map[string]int) (int, bool) {
	sum, seen := 0, map[string]bool{}
	for k, v := range m {
		sum += v
		seen[k] = true
		if v < 0 {
			return 0, false
		}
	}
	return sum, true
}

func merge(dst, src map[string]int) {
	for k, v := range src {
		if old, ok := dst[k]; ok {
			v = min(v, old)
		}
		dst[k] = v
	}
}

func tally(m map[string]string) (hit, miss int) {
	for _, v := range m {
		switch v {
		case "hit":
			hit++
		case "miss":
			miss++
		}
	}
	return hit, miss
}

func leakThroughSwitch(m map[string]string) []string {
	var out []string
	for k, v := range m {
		switch v {
		case "keep":
			out = append(out, k)
		}
	}
	return out
}
`)
	wantRule(t, findings, "unordered-map-range", 1)
}

// TestFloatAndStringAccumulationOrdered: += on a float or string the
// function declares depends on the order of its terms (rounding,
// concatenation), so a map range that accumulates one leaks iteration
// order. Integer sums, float parameters and per-iteration floats still
// commute.
func TestFloatAndStringAccumulationOrdered(t *testing.T) {
	findings := lintSource(t, `package p

func sigma(m map[string]float64) (s float64) {
	for _, v := range m {
		s += v
	}
	return s
}

func scaled(m map[string]float64) float64 {
	var p float64
	for _, v := range m {
		p *= v
	}
	return p
}

func joined(m map[string]int) string {
	out := ""
	for k := range m {
		out += k
	}
	return out
}

func converted(m map[string]int) float64 {
	q := float64(1)
	for _, v := range m {
		q /= float64(v)
	}
	return q
}

func count(m map[string]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}

func param(m map[string]float64, acc float64) float64 {
	for _, v := range m {
		acc += v
	}
	return acc
}

func perEntry(m map[string][]float64, out map[string]float64) {
	for k, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
}
`)
	wantRule(t, findings, "unordered-map-range", 4)
}

func TestMakeAndLiteralMapsTracked(t *testing.T) {
	findings := lintSource(t, `package p

func f() []int {
	m := make(map[int]int)
	lit := map[string]bool{"a": true}
	var out []int
	for k := range m {
		out = append(out, k)
	}
	for k := range lit {
		_ = k
		out = append(out, 1)
	}
	return out
}
`)
	wantRule(t, findings, "unordered-map-range", 2)
}

func TestStructFieldMapTracked(t *testing.T) {
	findings := lintSource(t, `package p

type prog struct {
	callers map[string][]string
}

func (p *prog) dump(w interface{ Write([]byte) (int, error) }) {
	for k := range p.callers {
		w.Write([]byte(k))
	}
}
`)
	wantRule(t, findings, "unordered-map-range", 1)
}

func TestSliceRangeClean(t *testing.T) {
	findings := lintSource(t, `package p

func f(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`)
	wantRule(t, findings, "unordered-map-range", 0)
}

func TestIgnoreDirective(t *testing.T) {
	findings := lintSource(t, `package p

func leak(m map[string]int) []string {
	var out []string
	//dtaintlint:ignore diagnostic output only, order does not matter
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	wantRule(t, findings, "unordered-map-range", 0)
}

func TestGuardedObsCallFlagged(t *testing.T) {
	findings := lintSource(t, `package p

import "dtaint/internal/obs"

type opts struct {
	Metrics *obs.Registry
}

func record(o opts, n int) {
	if o.Metrics != nil {
		o.Metrics.Counter("n", "help", nil).Add(uint64(n))
	}
}

func snapshot(o opts) []obs.MetricSnapshot {
	if reg := o.Metrics; reg != nil {
		return reg.Snapshot()
	}
	return nil
}
`)
	wantRule(t, findings, "guarded-obs-call", 2)
}

func TestUnguardedObsCallClean(t *testing.T) {
	findings := lintSource(t, `package p

import "dtaint/internal/obs"

type opts struct {
	Metrics *obs.Registry
}

func record(o opts, n int) {
	o.Metrics.Counter("n", "help", nil).Add(uint64(n))
}
`)
	wantRule(t, findings, "guarded-obs-call", 0)
}

func TestGuardedEventsCallFlagged(t *testing.T) {
	findings := lintSource(t, `package p

import "dtaint/internal/obs/events"

type opts struct {
	Events *events.Emitter
}

func record(o opts, done, total int) {
	if o.Events != nil {
		o.Events.Progress("binaries", done, total)
	}
	em := events.NewJournal(0).Emitter("job")
	if em != nil {
		em.Emit(events.ScanEvent{})
	}
}
`)
	wantRule(t, findings, "guarded-obs-call", 2)
}

func TestEarlyReturnObsGuardFlagged(t *testing.T) {
	findings := lintSource(t, `package p

import (
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
)

func record(reg *obs.Registry, n int) {
	if reg == nil {
		return
	}
	reg.Counter("n", "help", nil).Add(uint64(n))
}

func emit(em *events.Emitter) {
	if em == nil {
		return
	}
	em.Emit(events.ScanEvent{})
}
`)
	wantRule(t, findings, "guarded-obs-call", 2)
}

func TestEarlyReturnObsGuardExemptions(t *testing.T) {
	// Guards returning a value, doing more than returning, or guarding
	// non-obs values are all legitimate; so are waived lines.
	findings := lintSource(t, `package p

import "dtaint/internal/obs"

func snapshot(reg *obs.Registry) []obs.MetricSnapshot {
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

func record(reg *obs.Registry, expensive func() uint64) {
	//dtaintlint:ignore skips expensive attribute construction
	if reg == nil {
		return
	}
	reg.Counter("n", "help", nil).Add(expensive())
}

type cache struct{}

func (c *cache) warm() {}

func f(c *cache) {
	if c == nil {
		return
	}
	c.warm()
}
`)
	wantRule(t, findings, "guarded-obs-call", 0)
}

func TestNonObsNilGuardClean(t *testing.T) {
	findings := lintSource(t, `package p

type cache struct{}

func (c *cache) Stats() int { return 0 }

func f(c *cache) int {
	if c != nil {
		return c.Stats()
	}
	return 0
}
`)
	wantRule(t, findings, "guarded-obs-call", 0)
}

// TestRepositoryIsClean runs the linter over the real tree: the
// determinism and nil-safe-handle contracts must hold everywhere.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lintTree([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

func TestGobImportFlagged(t *testing.T) {
	findings := lintSource(t, `package p

import "encoding/gob"

var _ = gob.Register
`)
	wantRule(t, findings, "unversioned-serialization", 1)
}

func TestAdHocAnalysisSerializationFlagged(t *testing.T) {
	findings := lintSource(t, `package p

import (
	"encoding/json"

	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

func dump(sum *symexec.Summary, findings []taint.Finding) ([]byte, error) {
	if _, err := json.Marshal(findings); err != nil {
		return nil, err
	}
	return json.Marshal(sum)
}
`)
	wantRule(t, findings, "unversioned-serialization", 2)
}

func TestEncoderOfAnalysisValueFlagged(t *testing.T) {
	findings := lintSource(t, `package p

import (
	"encoding/json"
	"io"

	"dtaint/internal/vrange"
)

func dump(w io.Writer) error {
	iv := vrange.Interval{Lo: 1, Hi: 2}
	return json.NewEncoder(w).Encode(iv)
}
`)
	wantRule(t, findings, "unversioned-serialization", 1)
}

func TestNonAnalysisSerializationClean(t *testing.T) {
	findings := lintSource(t, `package p

import "encoding/json"

type report struct{ N int }

func dump(r *report) ([]byte, error) {
	return json.Marshal(r)
}
`)
	wantRule(t, findings, "unversioned-serialization", 0)
}

func TestSerializationIgnoreDirective(t *testing.T) {
	findings := lintSource(t, `package p

import (
	"encoding/json"

	"dtaint/internal/taint"
)

func dump(fs []taint.Finding) ([]byte, error) {
	//dtaintlint:ignore debug-only dump, never persisted
	return json.Marshal(fs)
}
`)
	wantRule(t, findings, "unversioned-serialization", 0)
}

// lintSourceAt writes one fixture into dir/<rel>/fixture.go so rules
// scoped by package path (rule 4 targets internal/taint) see it.
func lintSourceAt(t *testing.T, rel, src string) []string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), rel)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintTree([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestHardcodedVocabNameFlagged(t *testing.T) {
	src := `package taint

func special(callee string) bool {
	return callee == "strcpy" || callee == "system"
}
`
	findings := lintSourceAt(t, "internal/taint", src)
	wantRule(t, findings, "hardcoded-vocab-name", 2)
	// The same literals outside the engine are nobody's business.
	wantRule(t, lintSourceAt(t, "internal/corpus", src), "hardcoded-vocab-name", 0)
}

func TestHardcodedVocabNameExemptions(t *testing.T) {
	// Import paths, non-vocab literals, and waived lines are all clean.
	findings := lintSourceAt(t, "internal/taint", `package taint

import "strings"

const loopSink = "loop"

func f(s string) bool {
	//dtaintlint:ignore exercising the waiver path
	if s == "memcpy" {
		return true
	}
	return strings.Contains(s, "atoi_")
}
`)
	wantRule(t, findings, "hardcoded-vocab-name", 0)
}

// lintSourceIn writes one fixture file into the package directory dir
// of a temp tree and lints the tree.
func lintSourceIn(t *testing.T, dir, src string) []string {
	t.Helper()
	root := t.TempDir()
	pkg := filepath.Join(root, filepath.FromSlash(dir))
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintTree([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// keyIdentitySrc spells identity out of .Key() strings four ways: a
// map index, a comparison, a joined pair and an index by a
// concatenation; the fifth, waived, is not reported.
const keyIdentitySrc = `package p

type expr interface{ Key() string }

func same(a, b expr) bool { return a.Key() == b.Key() }

func lookup(m map[string]bool, e expr) bool { return m[e.Key()] }

func pair(a, b expr) string { return a.Key() + "=" + b.Key() }

func field(m map[string]bool, e expr) bool { return m[e.Key()+"#4"] }

func waived(m map[string]bool, e expr) bool {
	return m[e.Key()] //dtaintlint:ignore exercising the waiver path
}
`

func TestKeyIdentityFlagged(t *testing.T) {
	wantRule(t, lintSourceIn(t, "internal/symexec", keyIdentitySrc), "key-identity", 4)
}

// TestSSEKeyIdentityFlagged: code in internal/sse that spells path or
// node identity out of .Key() strings is reported; a map keyed by
// string is not, on its own.
func TestSSEKeyIdentityFlagged(t *testing.T) {
	findings := lintSourceIn(t, "internal/sse", `package sse

type Node struct{}

type index struct {
	byKey map[string]*Node
}

func same(a, b interface{ Key() string }) bool {
	return a.Key() == b.Key()
}

func lookup(m map[string]bool, e interface{ Key() string }) bool {
	return m[e.Key()]
}
`)
	wantRule(t, findings, "key-identity", 2)
}

// TestSSEKeyIdentityInSSEPackage: inside package sse the waiver
// directive clears a deliberate exception and leaves the rest reported.
func TestSSEKeyIdentityInSSEPackage(t *testing.T) {
	findings := lintSourceIn(t, "internal/sse", `package sse

type path interface{ Key() string }

func waived(slots map[string]bool, p path) bool {
	return slots[p.Key()] //dtaintlint:ignore exercising the waiver path
}

func bad(slots map[string]bool, p path) bool {
	return slots[p.Key()]
}
`)
	wantRule(t, findings, "key-identity", 1)
}

// TestKeyIdentityScopedToAnalysisPackages: the rule covers the packages
// whose expressions are nodes of one analysis's table, and no others;
// elsewhere keys are the normal currency.
func TestKeyIdentityScopedToAnalysisPackages(t *testing.T) {
	for dir, want := range map[string]int{
		"internal/taint": 4, "internal/dataflow/sub": 4,
		"internal/sse": 4, "internal/alias": 4, "internal/sumstore": 4,
		"internal/structsim": 0, "internal/diff": 0, "cmd/dtaint": 0,
	} {
		wantRule(t, lintSourceIn(t, dir, keyIdentitySrc), "key-identity", want)
	}
}

// TestKeyIdentityAllowsDerivedNamesAndOutput: a name derived from one
// expression's spelling and a concatenation handed straight to a call
// (a trace line) are not identity.
func TestKeyIdentityAllowsDerivedNamesAndOutput(t *testing.T) {
	findings := lintSourceIn(t, "internal/taint", `package taint

type expr interface{ Key() string }

func LenSymName(k string) string { return "len_" + k }

func derived(env map[string]int, c expr) int {
	name := "atoi_" + LenSymName(c.Key())
	return env[LenSymName(c.Key())] + len(name)
}

func trace(out func(string), l, r expr) {
	out("flags = cmp(" + l.Key() + ", " + r.Key() + ")")
}
`)
	wantRule(t, findings, "key-identity", 0)
}
