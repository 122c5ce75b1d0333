package corpus

import (
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/dataflow"
	"dtaint/internal/emul"
	"dtaint/internal/firmware"
	"dtaint/internal/taint"
)

// testScale keeps unit tests fast; detection results are scale-invariant
// because planted code is never scaled.
const testScale = 0.05

func TestStudyImagesWellFormed(t *testing.T) {
	specs := StudyImages()
	if len(specs) != 6 {
		t.Fatalf("study images = %d, want 6", len(specs))
	}
	totalVulns, totalZero := 0, 0
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Product, func(t *testing.T) {
			bin, planted, err := BuildBinary(spec, testScale)
			if err != nil {
				t.Fatal(err)
			}
			if bin.Arch != spec.Arch {
				t.Errorf("arch = %v, want %v", bin.Arch, spec.Arch)
			}
			if len(planted) == 0 {
				t.Fatal("no planted vulnerabilities")
			}
			totalVulns += ExpectedVulns(planted)
			totalZero += ExpectedZeroDays(planted)
			// Every planted sink function must exist in the binary.
			for _, p := range planted {
				if _, ok := bin.FuncByName(p.SinkFunc); !ok {
					t.Errorf("planted sink function %s missing", p.SinkFunc)
				}
			}
		})
	}
	// The paper's bottom line: 21 vulnerabilities, 13 zero-days.
	if totalVulns != 21 {
		t.Errorf("total planted vulnerabilities = %d, want 21", totalVulns)
	}
	if totalZero != 13 {
		t.Errorf("total planted zero-days = %d, want 13", totalZero)
	}
}

func TestPathTotalsMatchTableIII(t *testing.T) {
	want := map[string]struct{ paths, vulns int }{
		"DIR-645":     {7, 4},
		"DIR-890L":    {5, 2},
		"DGN1000":     {19, 6},
		"DGN2200":     {14, 2},
		"IPC_6201":    {10, 1},
		"DS-2CD6233F": {30, 6},
	}
	for _, spec := range StudyImages() {
		_, planted := BuildSource(spec, testScale)
		w := want[spec.Product]
		if got := ExpectedPaths(planted); got != w.paths {
			t.Errorf("%s: planted paths = %d, want %d", spec.Product, got, w.paths)
		}
		if got := ExpectedVulns(planted); got != w.vulns {
			t.Errorf("%s: planted vulns = %d, want %d", spec.Product, got, w.vulns)
		}
	}
}

// TestDetectionMatchesGroundTruth is the core end-to-end check: DTaint
// must find exactly the planted vulnerabilities in every study image —
// right sink function, right source, right class — and nothing else.
func TestDetectionMatchesGroundTruth(t *testing.T) {
	for _, spec := range StudyImages() {
		spec := spec
		t.Run(spec.Product, func(t *testing.T) {
			bin, planted, err := BuildBinary(spec, testScale)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Build(bin)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dataflow.Analyze(prog, dataflow.Options{Filter: ModuleFilter(spec)})
			if err != nil {
				t.Fatal(err)
			}
			vulns := res.Vulnerabilities()
			if len(vulns) != len(planted) {
				for _, v := range vulns {
					t.Logf("found: %s", v.String())
				}
				t.Fatalf("found %d vulnerabilities, want %d", len(vulns), len(planted))
			}
			paths := res.VulnerablePaths()
			if len(paths) != ExpectedPaths(planted) {
				for _, p := range paths {
					t.Logf("path: %s", p.String())
				}
				t.Fatalf("found %d paths, want %d", len(paths), ExpectedPaths(planted))
			}
			// Each planted vuln matched by sink function and source.
			for _, p := range planted {
				matched := false
				for _, v := range vulns {
					if v.SinkFunc == p.SinkFunc && v.Source == p.Source &&
						v.Sink == p.Sink && v.Class == p.Class {
						matched = true
					}
				}
				if !matched {
					for _, v := range vulns {
						t.Logf("found: %s", v.String())
					}
					t.Fatalf("planted %s (%s->%s in %s) not detected",
						p.ID, p.Source, p.Sink, p.SinkFunc)
				}
			}
		})
	}
}

// TestAblationsLoseFeatureDependentVulns verifies the paper's claim that
// the Hikvision findings depend on pointer aliasing and data-structure
// similarity.
func TestAblationsLoseFeatureDependentVulns(t *testing.T) {
	spec, ok := SpecByProduct("DS-2CD6233F")
	if !ok {
		t.Fatal("spec missing")
	}
	bin, planted, err := BuildBinary(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	count := func(opts dataflow.Options) int {
		opts.Filter = ModuleFilter(spec)
		res, err := dataflow.Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Vulnerabilities())
	}
	full := count(dataflow.Options{})
	if full != len(planted) {
		t.Fatalf("full analysis found %d, want %d", full, len(planted))
	}
	needs := func(feature string) int {
		n := 0
		for _, p := range planted {
			for _, f := range p.Needs {
				if f == feature {
					n++
				}
			}
		}
		return n
	}
	noAlias := count(dataflow.Options{DisableAlias: true})
	if want := full - needs("alias"); noAlias != want {
		t.Errorf("alias ablation found %d, want %d", noAlias, want)
	}
	noSim := count(dataflow.Options{DisableStructSim: true})
	if want := full - needs("structsim"); noSim != want {
		t.Errorf("structsim ablation found %d, want %d", noSim, want)
	}
}

func TestBuildFirmwareRoundTrip(t *testing.T) {
	spec := StudyImages()[0]
	data, planted, err := BuildFirmware(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	img, fs, err := firmware.Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Header.Vendor != "D-Link" || img.Header.Product != "DIR-645" {
		t.Fatalf("header = %+v", img.Header)
	}
	f, err := fs.Lookup("/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) == 0 || len(planted) != 4 {
		t.Fatalf("binary %d bytes, planted %d", len(f.Data), len(planted))
	}
}

func TestDeterminism(t *testing.T) {
	spec := StudyImages()[2]
	a, _ := BuildSource(spec, testScale)
	b, _ := BuildSource(spec, testScale)
	if a != b {
		t.Fatal("corpus generation is not deterministic")
	}
}

func TestScaleOneApproachesTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build in -short mode")
	}
	// Check the smallest study image at full scale: function, block, and
	// edge counts within 15% of Table II.
	spec := StudyImages()[0] // cgibin, 237 funcs
	bin, _, err := BuildBinary(spec, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	within := func(got, want int) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return float64(d) <= 0.15*float64(want)
	}
	if !within(st.Functions, spec.Funcs) {
		t.Errorf("functions = %d, want ≈%d", st.Functions, spec.Funcs)
	}
	if !within(st.Blocks, spec.Blocks) {
		t.Errorf("blocks = %d, want ≈%d", st.Blocks, spec.Blocks)
	}
	if !within(st.CallGraphEdges, spec.CallEdges) {
		t.Errorf("edges = %d, want ≈%d", st.CallGraphEdges, spec.CallEdges)
	}
}

func TestOpenSSLHeartbleed(t *testing.T) {
	bin, err := OpenSSL(testScale)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Analyze(prog, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := HeartbleedGroundTruth()
	var found bool
	for _, v := range res.Vulnerabilities() {
		if v.SinkFunc == gt.SinkFunc && v.Sink == gt.Sink && v.Source == gt.Source {
			found = true
		}
	}
	if !found {
		for _, v := range res.Vulnerabilities() {
			t.Logf("found: %s", v.String())
		}
		t.Fatal("Heartbleed not detected")
	}
	if gt.Class != taint.ClassBufferOverflow {
		t.Fatal("ground truth class")
	}
}

func TestPopulationShape(t *testing.T) {
	images := Population()
	if len(images) != PopulationSize {
		t.Fatalf("population = %d, want %d", len(images), PopulationSize)
	}
	e := emul.New()
	stats := e.Study(images)
	if len(stats) != 8 {
		t.Fatalf("years = %d", len(stats))
	}
	success := 0
	for _, st := range stats {
		success += st.Success
		if st.Year < 2009 || st.Year > 2016 {
			t.Errorf("year %d out of range", st.Year)
		}
		// Success is a small fraction in every year.
		if st.Success*3 > st.Total {
			t.Errorf("year %d: %d/%d emulable — too many", st.Year, st.Success, st.Total)
		}
	}
	if success != EmulableTotal {
		t.Fatalf("emulable = %d, want %d", success, EmulableTotal)
	}
	// >65% unpack failures.
	unpackFails := 0
	for _, img := range images {
		if _, err := firmware.ExtractRootFS(img); err != nil {
			unpackFails++
		}
	}
	if ratio := float64(unpackFails) / float64(len(images)); ratio < 0.60 || ratio > 0.70 {
		t.Fatalf("unpack failure ratio = %.2f, want ≈0.65", ratio)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := Population()
	b := Population()
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i].Header.Product != b[i].Header.Product ||
			a[i].Header.Year != b[i].Header.Year {
			t.Fatalf("image %d differs", i)
		}
	}
}
