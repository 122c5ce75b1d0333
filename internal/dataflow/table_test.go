package dataflow

import (
	"fmt"
	"sort"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/expr"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
)

// TestTableChangesNoSummary: building a binary's expressions through one
// shared expr.Table gives every function the summary that fresh nodes
// give, compared by key, over a screening seed and the study images.
func TestTableChangesNoSummary(t *testing.T) {
	bins := map[string]*image.Binary{}
	cases, err := corpus.ScreeningCorpus(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		bins[c.Name] = c.Binary
	}
	for _, spec := range corpus.StudyImages() {
		bin, _, err := corpus.BuildBinary(spec, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		bins[spec.Product] = bin
	}

	names := make([]string, 0, len(bins))
	for name := range bins {
		names = append(names, name)
	}
	sort.Strings(names)
	functions := 0
	for _, name := range names {
		prog, err := cfg.Build(bins[name])
		if err != nil {
			t.Fatal(err)
		}
		base := Options{Symexec: symexec.Options{LoopOnce: true}}.withVocab()
		shared := base
		shared.Symexec.Table = new(expr.Table)
		plain, interned := newTracker(base, prog.Binary), newTracker(shared, prog.Binary)
		for _, fn := range prog.Funcs {
			plain.BeginFunction(fn.Name)
			interned.BeginFunction(fn.Name)
			want := summaryLines(symexec.Analyze(fn, prog.Binary, plain, base.Symexec))
			got := summaryLines(symexec.Analyze(fn, prog.Binary, interned, shared.Symexec))
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d summary lines with the table, %d without", name, fn.Name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: with the table %q, without %q", name, fn.Name, got[i], want[i])
				}
			}
			functions++
		}
	}
	t.Logf("%d functions in %d binaries compared", functions, len(names))
}

// summaryLines renders every field of a summary by expression key.
func summaryLines(s *symexec.Summary) []string {
	out := []string{fmt.Sprintf("states=%d blocks=%d truncated=%t", s.StatesExplored, s.BlocksAnalyzed, s.Truncated)}
	for _, c := range s.Constraints {
		out = append(out, fmt.Sprintf("constraint %s %v %s @%x loop=%t", c.L.Key(), c.Cond, c.R.Key(), c.Addr, c.InLoop))
	}
	for _, dp := range s.DefPairs {
		out = append(out, fmt.Sprintf("def %s = %s @%x size=%d", dp.D.Key(), dp.U.Key(), dp.Addr, dp.Size))
	}
	for _, r := range s.Rets {
		out = append(out, "ret "+r.Key())
	}
	for _, c := range s.Calls {
		line := fmt.Sprintf("call %s kind=%v @%x loop=%t ret=%s", c.Callee, c.Kind, c.Addr, c.InLoop, expr.Fmt(c.Ret))
		for _, a := range c.Args {
			line += " arg=" + expr.Fmt(a)
		}
		out = append(out, line+" fnptr="+expr.Fmt(c.FnPtr))
	}
	for _, f := range s.Fields {
		out = append(out, fmt.Sprintf("field %s+%d %v %s", f.Base.Key(), f.Off, f.Ty, f.FnTarget))
	}
	for _, ls := range s.LoopStores {
		out = append(out, fmt.Sprintf("loopstore %s = %s @%x size=%d", ls.AddrExpr.Key(), ls.Val.Key(), ls.Addr, ls.Size))
	}
	for _, u := range s.UndefUses {
		out = append(out, "use "+u.Key())
	}
	var keyed []string
	for k, ty := range s.Types {
		keyed = append(keyed, fmt.Sprintf("type %s %v", k, ty))
	}
	for k, iv := range s.Ranges {
		keyed = append(keyed, fmt.Sprintf("range %s %v", k, iv))
	}
	sort.Strings(keyed)
	return append(out, keyed...)
}
