package sumstore

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"

	"dtaint/internal/obs"
)

// Stats is a snapshot of a Tier's counters.
type Stats struct {
	// Hits counts lookups served from memory or disk.
	Hits uint64 `json:"hits"`
	// DiskHits is the subset of Hits that had to read the on-disk tier
	// (a miss in the LRU; the entry is promoted back into memory).
	DiskHits uint64 `json:"diskHits"`
	// Misses counts lookups that found nothing (or found an entry that
	// failed to decode) and forced a fresh analysis.
	Misses uint64 `json:"misses"`
	// Evictions counts LRU entries dropped from memory (the disk tier,
	// when configured, never evicts).
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// Publish exports the counters into an obs registry as
// <prefix>_{hits,disk_hits,misses,evictions}_total and <prefix>_entries
// (Store semantics: idempotent snapshots, so many publishers of the
// same tier agree). noun names the tier in the help texts.
func (s Stats) Publish(reg *obs.Registry, prefix, noun string) {
	reg.Counter(prefix+"_hits_total", noun+" lookups served from memory or disk.", nil).Store(s.Hits)
	reg.Counter(prefix+"_disk_hits_total", noun+" hits served from the on-disk tier.", nil).Store(s.DiskHits)
	reg.Counter(prefix+"_misses_total", noun+" lookups that forced a fresh analysis.", nil).Store(s.Misses)
	reg.Counter(prefix+"_evictions_total", noun+" LRU entries dropped from memory.", nil).Store(s.Evictions)
	reg.Gauge(prefix+"_entries", noun+" in-memory entry count.", nil).Set(float64(s.Entries))
}

// Tier is the two-tier blob store under both the summary store and the
// fleet report cache: a bounded in-memory LRU for the hot set over an
// optional unbounded on-disk tier (one file per key, write-then-rename)
// that survives process restarts. It stores encoded blobs; each user
// brings its own codec, and values are decoded on every Get, so callers
// own their copy.
//
// A lookup is classified only after its blob decodes: a blob that fails
// to decode counts as a miss and a disk blob is promoted into memory
// (and counted as a disk hit) only once it has decoded, so a corrupt
// file never poisons the LRU and a repaired one hits again. Decoding
// runs outside the lock. All methods are safe for concurrent use.
type Tier struct {
	mu    sync.Mutex
	max   int
	ext   string
	dir   string
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	st    Stats // Entries is filled in by Stats
}

type tierEntry struct {
	key  string
	blob []byte
}

// NewTier returns a tier holding at most maxEntries blobs in memory
// (maxEntries <= 0 selects defaultMax). If dir is non-empty it is
// created if needed (a failure is returned unwrapped, for the caller to
// name) and used as the persistent tier, one <key><ext> file per entry.
func NewTier(maxEntries, defaultMax int, dir, ext string) (*Tier, error) {
	if maxEntries <= 0 {
		maxEntries = defaultMax
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Tier{
		max:   maxEntries,
		ext:   ext,
		dir:   dir,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}, nil
}

// Get looks key up in memory, then on disk, and hands the blob to
// decode outside the lock. It reports whether decode succeeded; a
// lookup takes the lock twice whichever way it ends.
func (t *Tier) Get(key string, decode func(blob []byte) error) bool {
	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		t.ll.MoveToFront(el)
		blob := el.Value.(*tierEntry).blob
		t.mu.Unlock()
		err := decode(blob)
		t.mu.Lock()
		if err == nil {
			t.st.Hits++
		} else {
			t.st.Misses++
		}
		t.mu.Unlock()
		return err == nil
	}
	t.mu.Unlock()

	if t.dir != "" {
		if blob, err := os.ReadFile(t.path(key)); err == nil && decode(blob) == nil {
			t.mu.Lock()
			t.st.Hits++
			t.st.DiskHits++
			t.insertLocked(key, blob)
			t.mu.Unlock()
			return true
		}
	}

	t.mu.Lock()
	t.st.Misses++
	t.mu.Unlock()
	return false
}

// Put stores blob under key in memory and, when configured, on disk.
// Disk write failures are ignored: the memory tier still serves.
func (t *Tier) Put(key string, blob []byte) {
	t.mu.Lock()
	t.insertLocked(key, blob)
	t.mu.Unlock()
	if t.dir != "" {
		// Write-then-rename so a crashed writer never leaves a torn
		// entry for a future Get to decode.
		path := t.path(key)
		if err := os.WriteFile(path+".tmp", blob, 0o644); err == nil {
			_ = os.Rename(path+".tmp", path)
		}
	}
}

// Stats returns a snapshot of the counters.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.Entries = len(t.items)
	return st
}

func (t *Tier) insertLocked(key string, blob []byte) {
	if el, ok := t.items[key]; ok {
		t.ll.MoveToFront(el)
		el.Value.(*tierEntry).blob = blob
		return
	}
	t.items[key] = t.ll.PushFront(&tierEntry{key: key, blob: blob})
	for len(t.items) > t.max {
		last := t.ll.Back()
		t.ll.Remove(last)
		delete(t.items, last.Value.(*tierEntry).key)
		t.st.Evictions++
	}
}

func (t *Tier) path(key string) string {
	return filepath.Join(t.dir, key+t.ext)
}
