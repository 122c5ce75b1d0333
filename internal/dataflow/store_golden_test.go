package dataflow

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
)

// storeGoldenFile pins the bytes the summary store persists for the
// golden units: for every golden mode and unit, each blob a disk-backed
// store holds after one scan, as its key and the sha256 of its bytes.
// It guards the wire encoding of real summaries and component entries,
// pending sinks included, and the keys they are stored under.
const storeGoldenFile = "testdata/golden_store.txt"

// TestGoldenStoreBytes scans every golden unit into a fresh disk-backed
// store at 1 and at 4 workers; the stored blobs must match the golden
// byte for byte. Every scan reuses the units' programs, so a key that
// an earlier scan of the same program could move shows here too.
func TestGoldenStoreBytes(t *testing.T) {
	want, err := os.ReadFile(storeGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	units := goldenUnits(t)
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		for _, m := range goldenModes {
			for _, u := range units {
				dir := t.TempDir()
				store, err := sumstore.NewStore(0, dir)
				if err != nil {
					t.Fatal(err)
				}
				opts := m.opts
				opts.Parallelism = workers
				opts.Filter = u.filter
				opts.SummaryStore = store
				if _, err := Analyze(u.prog, opts); err != nil {
					t.Fatalf("%s %s: %v", m.name, u.name, err)
				}
				renderStore(t, &got, m.name, u.name, dir)
			}
		}
		matchGolden(t, storeGoldenFile, want, got.Bytes(), workers)
	}
}

// renderStore writes one store directory in the golden's line format: a
// header, then a line per blob in key order. A key is cut to its kind
// prefix and 16 hex digits, which tell the blobs of one unit apart.
func renderStore(t *testing.T, b *bytes.Buffer, mode, unit, dir string) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s %s blobs=%d\n", mode, unit, len(files))
	for _, f := range files {
		blob, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		key := strings.TrimSuffix(f.Name(), ".dtss")
		if i := strings.IndexByte(key, '-'); i >= 0 && len(key) > i+17 {
			key = key[:i+17]
		}
		fmt.Fprintf(b, "B %s %x\n", key, sha256.Sum256(blob))
	}
}

// TestStoredSummariesHoldNoConstraints checks what the wire format
// cannot: a summary's own constraints are not encoded, so a summary
// handed to the store with some would replay differently from the live
// one. Phase 1 hands PutSummary exactly the summaries runPhase1 returns
// on a cold store, here for every function, and each component hands PutEntry the
// summaries it publishes into Result.Summaries, which no one mutates
// after publication.
func TestStoredSummariesHoldNoConstraints(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, m := range goldenModes {
			for _, u := range goldenUnits(t) {
				opts := m.opts
				opts.Parallelism = workers
				opts.Filter = u.filter
				newStore := func() *sumstore.Store {
					store, err := sumstore.NewStore(0, "")
					if err != nil {
						t.Fatal(err)
					}
					return store
				}
				opts.SummaryStore = newStore()
				res, err := Analyze(u.prog, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", m.name, u.name, err)
				}
				opts.SummaryStore = newStore()
				opts = opts.withVocab().withTable()
				phase1, _ := runPhase1(u.prog, filteredNames(u.prog, u.filter), opts, fingerprinter(u.prog, opts), nil)
				for pass, sums := range map[string]map[string]*symexec.Summary{"phase 1": phase1, "bottom-up": res.Summaries} {
					for name, sum := range sums {
						if len(sum.Constraints) > 0 {
							t.Fatalf("workers=%d %s %s: %s summary of %s holds %d constraints the store drops",
								workers, m.name, u.name, pass, name, len(sum.Constraints))
						}
					}
				}
			}
		}
	}
}
