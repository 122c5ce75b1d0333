package dataflow

import (
	"strings"
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

func compileVocab(t *testing.T, doc string) *taint.Vocabulary {
	t.Helper()
	spec, err := vocab.Parse([]byte(doc), "test.json")
	if err != nil {
		t.Fatal(err)
	}
	v, err := taint.CompileVocabulary(spec)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const tinyVocab = `{"version": 1, "functions": [
	{"name": "uart_read", "kind": "source", "retTaint": true},
	{"name": "flash_write", "kind": "sink", "class": "buffer-overflow",
	 "args": [{"type": "char*", "role": "dest"}, {"type": "char*", "role": "src"}]}]}`

// The vocabulary is part of every cache key: a nil Vocab must
// fingerprint identically to the explicit default (default-vocab runs
// stay shareable), while any other vocabulary must change the digest.
func TestOptionsFingerprintVocabulary(t *testing.T) {
	base := OptionsFingerprint(Options{}, "")
	if !strings.HasPrefix(base, "v4;") {
		t.Fatalf("fingerprint version tag wrong: %q", base)
	}
	// The bumped tag makes every pre-SSE (v3) cache entry miss.
	if strings.HasPrefix(base, "v3;") {
		t.Fatalf("stale v3 fingerprint: %q", base)
	}
	if !strings.Contains(base, ";vocab="+taint.DefaultVocabulary().Fingerprint()) {
		t.Fatalf("fingerprint lacks the default vocabulary digest: %q", base)
	}
	explicit := OptionsFingerprint(Options{Vocab: taint.DefaultVocabulary()}, "")
	if explicit != base {
		t.Fatalf("explicit default diverges from nil:\n%q\n%q", explicit, base)
	}

	custom := OptionsFingerprint(Options{Vocab: compileVocab(t, tinyVocab)}, "")
	if custom == base {
		t.Fatal("custom vocabulary did not change the fingerprint")
	}
	// Two independent compilations of the same spec hash identically —
	// the property that lets separate processes share a persistent cache.
	again := OptionsFingerprint(Options{Vocab: compileVocab(t, tinyVocab)}, "")
	if again != custom {
		t.Fatalf("same spec, different fingerprints:\n%q\n%q", again, custom)
	}
}

// A vocabulary change invalidates cached summaries even when every
// other option matches; ablation flags still contribute independently.
func TestOptionsFingerprintIsolation(t *testing.T) {
	v := compileVocab(t, tinyVocab)
	a := OptionsFingerprint(Options{Vocab: v}, "")
	b := OptionsFingerprint(Options{Vocab: v, DisableAlias: true}, "")
	if a == b {
		t.Fatal("alias ablation lost under a custom vocabulary")
	}
	c := OptionsFingerprint(Options{Vocab: v}, "module-tag")
	if c == a {
		t.Fatal("filter tag lost under a custom vocabulary")
	}
	d := OptionsFingerprint(Options{Vocab: v, DisableSSE: true}, "")
	if d == a {
		t.Fatal("sse ablation lost under a custom vocabulary")
	}
	if d == b {
		t.Fatal("sse and alias ablations collide")
	}
}

// How the analysis executes is not part of any cache key: the worker
// count and the expression table leave results unchanged.
func TestOptionsFingerprintIgnoresExecution(t *testing.T) {
	base := OptionsFingerprint(Options{}, "")
	run := OptionsFingerprint(Options{Parallelism: 8, Symexec: symexec.Options{Table: new(expr.Table)}}, "")
	if run != base {
		t.Fatalf("execution settings changed the fingerprint:\n%q\n%q", run, base)
	}
}
