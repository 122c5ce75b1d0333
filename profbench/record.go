package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// recordSchema names the record layout. v1 records (BENCH_*.json written
// by cmd/benchtab) hold one sample per slice; v2 holds every workload's
// end-to-end distributions and per-layer numbers.
const recordSchema = "dtaint-bench/v2"

// record is one benchmark run over one or more workloads.
type record struct {
	Schema      string            `json:"schema"`
	GeneratedAt time.Time         `json:"generatedAt"`
	Env         envRecord         `json:"env"`
	Workloads   []*workloadRecord `json:"workloads"`
}

// envRecord pins the toolchain and host shape. Per-workload load (worker
// counts, passes) lives in each workload record.
type envRecord struct {
	GoVersion  string  `json:"goVersion"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newRecord(seed uint64, seconds float64) *record {
	return &record{
		Schema:      recordSchema,
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		Env: envRecord{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: seed, Seconds: seconds,
		},
	}
}

func (r *record) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
	}
	return &r, nil
}

func (r *record) workload(name string) *workloadRecord {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// summary is the one-line JSON summary a run ends with.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine holds the end-to-end medians when traced is false and the
// per-layer numbers when it is true.
func summaryLine(w *workloadRecord, traced bool) summary {
	out := summary{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed,
		Metrics: make(map[string]summaryValue)}
	if traced {
		for name, v := range w.PerLayer {
			out.Metrics[name] = summaryValue{Value: v.Value, Unit: v.Unit}
		}
		return out
	}
	for name, s := range w.EndToEnd {
		out.Metrics[name] = summaryValue{Value: s.Median, Unit: s.Unit}
	}
	return out
}

// printWorkload writes a workload's numbers as a table.
func printWorkload(out io.Writer, w *workloadRecord) {
	fmt.Fprintf(out, "== %s: %s\n", w.Name, w.Why)
	fmt.Fprintf(out, "inputs: %s (seed %d)\n", w.Inputs, w.Seed)
	fmt.Fprintf(out, "workers %d, ddg workers %d, set-ups %d, warm-ups %d, timed passes %d (%d unit samples); units %d attempted, %d failed (ratio %g)\n",
		w.Workers, w.DDGWorkers, w.SetupReps, w.Warmups, w.Passes, w.UnitSamples, w.Attempted, w.Failed, w.FailedRatio)
	fmt.Fprintf(out, "host calibration %.4f ms [q1 %.4f, q3 %.4f, n %d]; times scaled to %g ms, raw medians at right\n",
		w.HostCalMs.Median, w.HostCalMs.Q1, w.HostCalMs.Q3, w.HostCalMs.N, ms(calRef))
	for _, m := range endToEnd {
		s := w.EndToEnd[m.Name]
		raw := ""
		if r, ok := w.Raw[m.Name]; ok {
			raw = fmt.Sprintf("  raw %.4f", r.Median)
		}
		fmt.Fprintf(out, "  %-14s %12.4f %-3s  [q1 %.4f, q3 %.4f, n %d]%s\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N, raw)
	}
	if w.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		v := w.PerLayer[m.Name]
		exact := ""
		if v.Exact {
			exact = "exact"
		}
		fmt.Fprintf(out, "  %-28s %14.4f %-5s %s\n", m.Name, v.Value, m.Unit, exact)
	}
	layers := make([]string, 0, len(w.LayerSelfMs))
	for l := range w.LayerSelfMs {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(out, "  self %-23s %14.4f ms\n", l, w.LayerSelfMs[l])
	}
}
