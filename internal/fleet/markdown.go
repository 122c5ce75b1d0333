package fleet

import (
	"fmt"
	"io"
	"sort"
)

// WriteMarkdown renders the report as a Markdown document: an overview of
// the analyzed binary, one section per vulnerability with all paths that
// reach it, and an appendix of sanitized flows. Suitable for filing with
// a vendor disclosure.
func (r *BinaryAnalysis) WriteMarkdown(w io.Writer) error {
	pw := &printWriter{w: w}
	pw.printf("# Taint analysis report: %s\n\n", r.Binary)
	pw.printf("| | |\n|---|---|\n")
	pw.printf("| Architecture | %s |\n", r.Arch)
	pw.printf("| Functions | %d (%d analyzed) |\n", r.Functions, r.FunctionsAnalyzed)
	pw.printf("| Basic blocks | %d |\n", r.Blocks)
	pw.printf("| Call-graph edges | %d |\n", r.CallEdges)
	pw.printf("| Sensitive sink sites | %d |\n", r.SinkCount)
	pw.printf("| Indirect calls resolved | %d |\n", r.IndirectResolved)
	pw.printf("| Symbolic analysis | %v |\n", r.SSATime)
	pw.printf("| Data-flow generation | %v |\n\n", r.DDGTime)

	vulns := r.Vulnerabilities()
	paths := r.VulnerablePaths()
	pw.printf("**%d vulnerabilities** over %d vulnerable paths.\n\n", len(vulns), len(paths))

	// Group the paths under their deduplicated vulnerability.
	for i, v := range vulns {
		pw.printf("## %d. %s: %s → %s in `%s`\n\n", i+1, v.CWE(), v.Source, v.Sink, v.SinkFunc)
		pw.printf("- Class: %s\n", v.Class)
		pw.printf("- Sink callsite: `%s` at `%#x`\n", v.Sink, v.SinkAddr)
		for _, ev := range v.Evidence {
			pw.printf("- Evidence: %s\n", ev)
		}
		pw.printf("\n")
		n := 0
		for _, p := range paths {
			if p.Key() == v.Key() {
				n++
				pw.printf("Path %d (source `%s`):\n\n", n, p.Source)
				for _, step := range p.Path {
					pw.printf("  - `%s`\n", step)
				}
				pw.printf("\n")
			}
		}
	}

	// Sanitized flows, grouped per sink function, as an appendix.
	var sanitized []Finding
	for _, f := range r.Findings {
		if f.Sanitized {
			sanitized = append(sanitized, f)
		}
	}
	if len(sanitized) > 0 {
		sort.Slice(sanitized, func(i, j int) bool {
			if sanitized[i].SinkFunc != sanitized[j].SinkFunc {
				return sanitized[i].SinkFunc < sanitized[j].SinkFunc
			}
			return sanitized[i].SinkAddr < sanitized[j].SinkAddr
		})
		pw.printf("## Appendix: sanitized flows (%d)\n\n", len(sanitized))
		pw.printf("Tainted data reaching a sink behind a recognized check:\n\n")
		for _, f := range sanitized {
			pw.printf("- %s → %s in `%s@%#x`\n", f.Source, f.Sink, f.SinkFunc, f.SinkAddr)
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
