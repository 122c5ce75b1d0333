package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/diff"
	"dtaint/internal/fleet"
	"dtaint/internal/obs"
	"dtaint/internal/symexec"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodeStrict decodes data into v, rejecting any key v does not
// declare: an output in another dialect of the report fails here.
func decodeStrict(t *testing.T, what string, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s -json is not the service schema: %v\n%s", what, err, data)
	}
}

// untimed zeroes what legitimately differs between two runs of the
// same analysis: phase timings and the runtime snapshot.
func untimed(a *fleet.BinaryAnalysis) *fleet.BinaryAnalysis {
	if a == nil {
		return nil
	}
	c := *a
	c.SSATime, c.DDGTime, c.Runtime = 0, 0, nil
	return &c
}

func untimedImage(r *fleet.ImageReport) *fleet.ImageReport {
	c := *r
	c.Wall, c.Runtime = 0, obs.RuntimeStats{}
	c.Binaries = append([]fleet.BinaryScan(nil), r.Binaries...)
	for i := range c.Binaries {
		c.Binaries[i].Duration = 0
		c.Binaries[i].Analysis = untimed(c.Binaries[i].Analysis)
	}
	return &c
}

func untimedDiff(r *diff.Report) *diff.Report {
	c := *r
	c.Wall = 0
	c.Binaries = append([]diff.BinaryDiff(nil), r.Binaries...)
	for i := range c.Binaries {
		c.Binaries[i].Duration = 0
	}
	return &c
}

// TestCLIJSONIsServiceSchema: every -json output of the CLI is the
// encoding dtaintd serves — the single-binary report a
// fleet.BinaryAnalysis, -rootfs-all a fleet.ImageReport, -diff a
// diff.Report — and carries exactly what fleet.ScanImage and diff.Diff
// return for the same input, timings aside.
func TestCLIJSONIsServiceSchema(t *testing.T) {
	fw, _ := writeCorpus(t)
	fwData, err := os.ReadFile(fw)
	if err != nil {
		t.Fatal(err)
	}
	// dtaint.New's defaults, as dtaintd builds them.
	service := fleet.Options{Analysis: dataflow.Options{Symexec: symexec.Options{LoopOnce: true}}}
	ctx := context.Background()

	img, err := fleet.ScanImage(ctx, fwData, service)
	if err != nil {
		t.Fatal(err)
	}
	var want *fleet.BinaryAnalysis
	for _, b := range img.Binaries {
		if b.Path == "/htdocs/cgibin" {
			want = b.Analysis
		}
	}
	if want == nil || len(want.VulnerablePaths()) == 0 || len(want.VulnerablePaths()) == len(want.Findings) {
		t.Fatal("scan lacks a cgibin report with both vulnerable and sanitized findings")
	}

	// Single binary: the whole report with -all, the vulnerable paths
	// without it. One worker matches the scan's per-binary parallelism.
	o := cliOptions{fwPath: fw, binPath: "/htdocs/cgibin", workers: 1, jsonOut: true, showAll: true}
	var all fleet.BinaryAnalysis
	decodeStrict(t, "dtaint", captureStdout(t, func() error { _, err := run(o); return err }), &all)
	if all.Runtime == nil {
		t.Error("single-binary report lacks its runtime snapshot")
	}
	if got := untimed(&all); !reflect.DeepEqual(got, untimed(want)) {
		t.Errorf("dtaint -json -all differs from the scan's report:\n got %+v\nwant %+v", got, untimed(want))
	}
	o.showAll = false
	var vulnerable fleet.BinaryAnalysis
	decodeStrict(t, "dtaint", captureStdout(t, func() error { _, err := run(o); return err }), &vulnerable)
	if !reflect.DeepEqual(vulnerable.Findings, want.VulnerablePaths()) {
		t.Errorf("dtaint -json findings = %+v, want the vulnerable paths %+v", vulnerable.Findings, want.VulnerablePaths())
	}

	var image fleet.ImageReport
	fo := cliOptions{fwPath: fw, jsonOut: true}
	decodeStrict(t, "dtaint -rootfs-all", captureStdout(t, func() error { _, _, err := runFleet(fo); return err }), &image)
	if got := untimedImage(&image); !reflect.DeepEqual(got, untimedImage(img)) {
		t.Errorf("dtaint -rootfs-all -json differs from fleet.ScanImage:\n got %+v\nwant %+v", got, untimedImage(img))
	}

	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 2, Mutated: 1, SharedFuncs: 8, TailFuncs: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oldFile, newFile := filepath.Join(dir, "old.fwimg"), filepath.Join(dir, "new.fwimg")
	if err := os.WriteFile(oldFile, vp.Old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newFile, vp.New, 0o644); err != nil {
		t.Fatal(err)
	}
	wantDiff, err := diff.Diff(ctx, vp.Old, vp.New, service)
	if err != nil {
		t.Fatal(err)
	}
	if wantDiff.NewFindings == 0 {
		t.Fatal("version pair has no new findings to compare")
	}
	var gotDiff diff.Report
	do := cliOptions{jsonOut: true}
	decodeStrict(t, "dtaint -diff", captureStdout(t, func() error { _, err := runDiff(do, oldFile, newFile); return err }), &gotDiff)
	if got := untimedDiff(&gotDiff); !reflect.DeepEqual(got, untimedDiff(wantDiff)) {
		t.Errorf("dtaint -diff -json differs from diff.Diff:\n got %+v\nwant %+v", got, untimedDiff(wantDiff))
	}
}
