package main

import (
	"fmt"
	"io"
)

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
	verdictInfo       = "-"
	verdictMissing    = "missing"
	verdictApart      = "not comparable"
)

// compareRecords prints one row per (metric, workload) of head against
// base and reports whether head passes the gate. The gate fails on a rise
// in failed_ratio, an end-to-end median worse than base by more than the
// metric's bound (unless base's own interquartile range already exceeds
// the bound: unresolved), an exact counter moving in its worse direction,
// or a workload or metric head lacks. Per-layer times are reported but
// never gated. A workload run with another seed or for another number of
// seconds measured other inputs or another number of passes, so it fails
// the gate as not comparable.
func compareRecords(out io.Writer, base, head *record) bool {
	ok := true
	row := func(wl, name, b, h, bound, verdict string, gate bool) {
		if gate {
			ok = false
			verdict += " !"
		}
		fmt.Fprintf(out, "%-7s %-28s %-34s %-34s %-6s %s\n", wl, name, b, h, bound, verdict)
	}
	fmt.Fprintf(out, "%-7s %-28s %-34s %-34s %-6s %s\n", "wl", "metric", "base median [q1, q3]", "head median [q1, q3]", "bound", "verdict")
	for _, bw := range base.Workloads {
		hw := head.workload(bw.Name)
		if hw == nil {
			row(bw.Name, "(workload)", "present", "absent", "", verdictMissing, true)
			continue
		}
		if hw.Seed != bw.Seed || hw.Seconds != bw.Seconds {
			row(bw.Name, "(seed, seconds)", fmt.Sprintf("%d, %g", bw.Seed, bw.Seconds),
				fmt.Sprintf("%d, %g", hw.Seed, hw.Seconds), "", verdictApart, true)
			continue
		}
		fr := verdictSame
		if hw.FailedRatio < bw.FailedRatio {
			fr = verdictBetter
		}
		row(bw.Name, "failed_ratio", fmt.Sprintf("%g (%d/%d)", bw.FailedRatio, bw.Failed, bw.Attempted),
			fmt.Sprintf("%g (%d/%d)", hw.FailedRatio, hw.Failed, hw.Attempted), "0", fr,
			hw.FailedRatio > bw.FailedRatio)

		for _, m := range endToEnd {
			b, bok := bw.EndToEnd[m.Name]
			h, hok := hw.EndToEnd[m.Name]
			if !bok || !hok {
				row(bw.Name, m.Name, "", "", "", verdictMissing, bok)
				continue
			}
			v := endToEndVerdict(m, b, h)
			row(bw.Name, m.Name, fmtStat(b), fmtStat(h), fmt.Sprintf("%g%%", 100*m.Bound), v, v == verdictWorse)
		}

		if bw.PerLayer == nil {
			continue
		}
		for _, m := range perLayer {
			b, bok := bw.PerLayer[m.Name]
			h, hok := hw.PerLayer[m.Name]
			if !bok || !hok {
				row(bw.Name, m.Name, "", "", "", verdictMissing, bok)
				continue
			}
			v := verdictInfo
			if m.Exact {
				v = exactVerdict(m, b.Value, h.Value)
			}
			row(bw.Name, m.Name, fmt.Sprintf("%.6g", b.Value), fmt.Sprintf("%.6g", h.Value), "", v, v == verdictWorse)
		}
	}
	return ok
}

// endToEndVerdict compares medians as a share of base's median, oriented
// so that a positive change is a worsening.
func endToEndVerdict(m metric, b, h stat) string {
	if b.Median == 0 {
		return verdictUnresolved
	}
	if (b.Q3-b.Q1)/b.Median > m.Bound {
		return verdictUnresolved
	}
	change := (h.Median - b.Median) / b.Median
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return verdictWorse
	case change < -m.Bound:
		return verdictBetter
	}
	return verdictWithin
}

func exactVerdict(m metric, b, h float64) string {
	switch {
	case h == b:
		return verdictSame
	case (h > b) == (m.Better == "lower"):
		return verdictWorse
	}
	return verdictBetter
}

func fmtStat(s stat) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3)
}
