package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// storedReport is one BinaryAnalysis exactly as Cache.Put wrote it to
// disk under fleet-report/2 before BinaryAnalysis gained Runtime: the
// vulnSrc handler analyzed with the default options.
const storedReport = `{"binary":"webd","arch":"ARM","functions":1,"blocks":1,"callEdges":2,"functionsAnalyzed":1,"sinkCount":1,"indirectResolved":0,"defPairs":2,"truncated":0,"ssaNanos":94164,"ddgNanos":73203,"ddgWorkers":1,"sccComponents":1,"criticalPath":1,"findings":[{"class":"buffer-overflow","sink":"strcpy","sinkFunc":"handler","sinkAddr":65592,"source":"recv","path":["handler@0x10038(strcpy)"],"sanitized":false,"evidence":["no sanitizing bound on the tainted data"]}]}`

// TestCacheDecodesStoredReport: a cache directory filled under
// fleet-report/2 keeps replaying. The stored entry decodes through
// Cache.Get to the full report with a nil Runtime, and the report
// encodes back to the same bytes, so entries written now and then are
// interchangeable.
func TestCacheDecodesStoredReport(t *testing.T) {
	if reportFormat != "fleet-report/2" {
		t.Fatalf("reportFormat = %q: every entry stored under fleet-report/2 would miss", reportFormat)
	}
	dir := t.TempDir()
	key := Key([]byte("webd"), "fingerprint")
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(storedReport), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored report missed")
	}
	want := &BinaryAnalysis{
		Binary: "webd", Arch: "ARM",
		Functions: 1, Blocks: 1, CallEdges: 2,
		FunctionsAnalyzed: 1, SinkCount: 1, DefPairs: 2,
		SSATime: 94164, DDGTime: 73203,
		DDGWorkers: 1, SCCComponents: 1, CriticalPath: 1,
		Findings: []Finding{{
			Class: "buffer-overflow", Sink: "strcpy", SinkFunc: "handler",
			SinkAddr: 0x10038, Source: "recv",
			Path:     []string{"handler@0x10038(strcpy)"},
			Evidence: []string{"no sanitizing bound on the tainted data"},
		}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stored report decoded to\n%+v\nwant\n%+v", got, want)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
	blob, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != storedReport {
		t.Fatalf("report re-encodes as\n%s\nwant the stored bytes\n%s", blob, storedReport)
	}
}
