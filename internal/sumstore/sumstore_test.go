package sumstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dtaint/internal/obs"
)

func TestStoreHitMissCounters(t *testing.T) {
	s, err := NewStore(8, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSummary(tab, "p1-absent"); ok {
		t.Fatal("lookup in empty store hit")
	}
	s.PutSummary("p1-a", richSummary())
	got, ok := s.GetSummary(tab, "p1-a")
	if !ok {
		t.Fatal("stored summary missing")
	}
	if !reflect.DeepEqual(got, richSummary()) {
		t.Fatal("stored summary mutated")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.DiskHits != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore(2, "")
	if err != nil {
		t.Fatal(err)
	}
	sum := richSummary()
	s.PutSummary("p1-a", sum)
	s.PutSummary("p1-b", sum)
	if _, ok := s.GetSummary(tab, "p1-a"); !ok { // touch a: b becomes LRU
		t.Fatal("p1-a missing before eviction")
	}
	s.PutSummary("p1-c", sum) // evicts b
	if _, ok := s.GetSummary(tab, "p1-b"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.GetSummary(tab, "p1-a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreDiskTier checks persistence across store instances: a fresh
// Store over the same directory serves the old entries as disk hits and
// promotes them back into memory.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.PutSummary("p1-a", richSummary())
	s1.PutEntry("bu-x", richEntry())

	s2, err := NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := s2.GetSummary(tab, "p1-a")
	if !ok || !reflect.DeepEqual(sum, richSummary()) {
		t.Fatalf("disk summary: ok=%v", ok)
	}
	ent, ok := s2.GetEntry(tab, "bu-x")
	if !ok || !reflect.DeepEqual(ent, richEntry()) {
		t.Fatalf("disk entry: ok=%v", ok)
	}
	st := s2.Stats()
	if st.DiskHits != 2 || st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("stats after disk promote = %+v", st)
	}
	// Promoted entries now serve from memory.
	if _, ok := s2.GetSummary(tab, "p1-a"); !ok {
		t.Fatal("promoted entry missing")
	}
	if got := s2.Stats(); got.DiskHits != 2 || got.Hits != 3 {
		t.Fatalf("stats after memory hit = %+v", got)
	}
}

// TestStoreCorruptDiskFileIsMiss overwrites a persisted blob with
// garbage: the lookup must degrade to a miss, never return bad data or
// crash, and must not promote the garbage into memory — once the file
// is repaired, the same store hits it on disk.
func TestStoreCorruptDiskFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.PutSummary("p1-a", richSummary())
	path := filepath.Join(dir, "p1-a.dtss")
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("DTSSgarbage-not-a-valid-blob"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	check := func(want Stats) {
		t.Helper()
		st := s2.Stats()
		if st != want {
			t.Fatalf("stats = %+v, want %+v", st, want)
		}
		if st.DiskHits > st.Hits {
			t.Fatalf("DiskHits %d > Hits %d", st.DiskHits, st.Hits)
		}
	}
	if _, ok := s2.GetSummary(tab, "p1-a"); ok {
		t.Fatal("corrupt disk file served as a hit")
	}
	check(Stats{Misses: 1})

	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, ok := s2.GetSummary(tab, "p1-a")
	if !ok || !reflect.DeepEqual(sum, richSummary()) {
		t.Fatalf("repaired disk file: ok=%v", ok)
	}
	check(Stats{Hits: 1, DiskHits: 1, Misses: 1, Entries: 1})
}

// TestStoreKindConfusionIsMiss asks for an entry under a key holding a
// summary: the kind byte must turn the memory-tier lookup into a miss.
func TestStoreKindConfusionIsMiss(t *testing.T) {
	s, err := NewStore(8, "")
	if err != nil {
		t.Fatal(err)
	}
	s.PutSummary("k", richSummary())
	if _, ok := s.GetEntry(tab, "k"); ok {
		t.Fatal("summary blob served as an entry")
	}
	if st := s.Stats(); st != (Stats{Misses: 1, Entries: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreDefaultCapacity(t *testing.T) {
	s, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sum := richSummary()
	for i := 0; i < 64; i++ {
		s.PutSummary(fmt.Sprintf("p1-%02d", i), sum)
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 64 {
		t.Fatalf("default capacity evicted early: %+v", st)
	}
}

func TestStorePublishMetrics(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.PutSummary("p1-a", richSummary())
	s.GetSummary(tab, "p1-a")
	s.GetSummary(tab, "p1-b")

	reg := obs.NewRegistry()
	s.PublishMetrics(reg)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"dtaint_sumstore_hits_total 1",
		"dtaint_sumstore_misses_total 1",
		"dtaint_sumstore_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
