package diff

import (
	"fmt"
	"io"
)

// WriteMarkdown renders the differential report as a Markdown document:
// the two image identities, the pairing and cost summary, one table row
// per binary that changed hands, and the new findings first — the part a
// CI reviewer reads before anything else.
func (r *Report) WriteMarkdown(w io.Writer) error {
	pw := &printWriter{w: w}
	pw.printf("# Firmware diff: %s %s %s → %s\n\n",
		r.New.Vendor, r.New.Product, r.Old.Version, r.New.Version)
	pw.printf("| | Old | New |\n|---|---|---|\n")
	pw.printf("| Version | %s | %s |\n", r.Old.Version, r.New.Version)
	pw.printf("| Image SHA-256 | `%.12s…` | `%.12s…` |\n", r.Old.SHA256, r.New.SHA256)
	pw.printf("| Candidate binaries | %d | %d |\n\n", r.Old.Candidates, r.New.Candidates)

	pw.printf("**Pairing:** %d unchanged, %d changed, %d added, %d removed, %d moved.\n",
		r.Unchanged, r.Changed, r.Added, r.Removed, r.Moved)
	pw.printf("**Cost:** %d replayed from cache, %d re-analyzed", r.Replayed, r.Reanalyzed)
	if r.SummaryHitRate > 0 {
		pw.printf(" (function-summary hit rate %.0f%%)", 100*r.SummaryHitRate)
	}
	pw.printf("; wall %v over %d workers.\n", r.Wall, r.Workers)
	if r.Failed > 0 {
		pw.printf("**%d binary pair(s) failed to analyze.**\n", r.Failed)
	}
	pw.printf("\n**Findings:** %d new, %d fixed, %d persisting.\n\n",
		r.NewFindings, r.FixedFindings, r.PersistingFindings)

	// New findings first: this is the section a gate acts on.
	writeGroup := func(title string, status FindingStatus) {
		var rows []struct {
			bin string
			f   FindingDiff
		}
		for _, b := range r.Binaries {
			for _, f := range b.Findings {
				if f.Status == status {
					rows = append(rows, struct {
						bin string
						f   FindingDiff
					}{b.Path, f})
				}
			}
		}
		if len(rows) == 0 {
			return
		}
		pw.printf("## %s (%d)\n\n", title, len(rows))
		pw.printf("| Binary | Class | Flow | Location | Paths |\n|---|---|---|---|---|\n")
		for _, row := range rows {
			loc := fmt.Sprintf("`%s@%#x`", row.f.Finding.SinkFunc, row.f.Finding.SinkAddr)
			if row.f.OldFunc != "" {
				loc += fmt.Sprintf(" (was `%s`)", row.f.OldFunc)
			}
			pw.printf("| `%s` | %s | %s → %s | %s | %d |\n",
				row.bin, row.f.Finding.Class, row.f.Finding.Source, row.f.Finding.Sink, loc, row.f.Paths)
		}
		pw.printf("\n")
	}
	writeGroup("New findings", FindingNew)
	writeGroup("Fixed findings", FindingFixed)
	writeGroup("Persisting findings", FindingPersisting)

	// Per-binary appendix: only pairs that differ or erred; unchanged
	// pairs would dominate the table without informing the reader.
	var interesting []BinaryDiff
	for _, b := range r.Binaries {
		if b.Status != PairUnchanged || b.Error != "" {
			interesting = append(interesting, b)
		}
	}
	if len(interesting) > 0 {
		pw.printf("## Binary pairs\n\n")
		pw.printf("| Binary | Status | Funcs paired | Summary hits | New | Fixed | Error |\n|---|---|---|---|---|---|---|\n")
		for _, b := range interesting {
			name := b.Path
			if b.OldPath != "" {
				name = b.OldPath + " → " + b.Path
			}
			paired := ""
			if b.FuncsTotal > 0 {
				paired = fmt.Sprintf("%d/%d exact (%d renamed), %d similar",
					b.FuncsExact, b.FuncsTotal, b.FuncsRenamed, b.FuncsSimilar)
			}
			hits := ""
			if b.SummaryHits+b.SummaryMisses > 0 {
				hits = fmt.Sprintf("%d/%d", b.SummaryHits, b.SummaryHits+b.SummaryMisses)
			}
			pw.printf("| `%s` | %s | %s | %s | %d | %d | %s |\n",
				name, b.Status, paired, hits, b.New, b.Fixed, b.Error)
		}
		pw.printf("\n")
	}
	return pw.err
}

// printWriter accumulates the first write error so the rendering code
// stays linear.
type printWriter struct {
	w   io.Writer
	err error
}

func (p *printWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}
