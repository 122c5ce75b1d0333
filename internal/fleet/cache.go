package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dtaint/internal/sumstore"
)

// CacheStats is a snapshot of the report cache's counters.
type CacheStats = sumstore.Stats

// Cache is the content-addressed report cache: key = SHA-256(binary
// bytes) ⊕ analyzer-options fingerprint, value = the full BinaryAnalysis.
// Firmware fleets share binaries heavily (every image ships busybox, the
// same libc-linked daemons recur across models and versions), so the
// cache turns a fleet scan from O(images × binaries) analyses into
// O(distinct binaries).
//
// The cache is a sumstore.Tier — the same in-memory LRU over an
// optional on-disk tier that backs the summary store — holding
// JSON-encoded reports in <key>.json files. Values are decoded on every
// Get, so callers own their copy and cannot corrupt the cache by
// mutating a returned report.
//
// All methods are safe for concurrent use.
type Cache struct {
	tier *sumstore.Tier
}

// NewCache returns a cache holding at most maxEntries reports in memory
// (maxEntries <= 0 selects a default of 1024). If dir is non-empty it is
// created if needed and used as the persistent tier.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	t, err := sumstore.NewTier(maxEntries, 1024, dir, ".json")
	if err != nil {
		return nil, fmt.Errorf("fleet: cache dir: %w", err)
	}
	return &Cache{tier: t}, nil
}

// reportFormat names the BinaryAnalysis layout the cache stores. It is
// folded into every key, so entries written before a report field was
// added (findings without evidence, say) miss and are re-analyzed
// instead of replaying a report with the field missing. Bump it whenever
// BinaryAnalysis or Finding gains a field that scans fill in. Runtime
// did not bump it: only the single-binary Analyzer sets it, scans never
// do, and a nil Runtime is omitted, so every entry a scan stores is
// byte-identical to one stored before the field existed.
const reportFormat = "fleet-report/2"

// Key derives the content-addressed cache key for one binary under one
// analyzer configuration: SHA-256 over the binary bytes, a zero
// separator, the report format, another zero, and the options
// fingerprint (dataflow.OptionsFingerprint, shared with the summary
// store, so both invalidate together on an analysis version bump).
// Different analyzer options therefore never alias, and identical
// binaries at different rootfs paths (or in different images) always
// do. The fingerprint excludes Parallelism — results are bit-identical
// for every worker count — and names a function filter only through its
// FilterTag; the orchestrator bypasses the cache for a non-nil filter
// with an empty tag, so an unnameable filter can never poison shared
// entries.
func Key(binary []byte, fingerprint string) string {
	h := sha256.New()
	h.Write(binary)
	h.Write([]byte{0})
	h.Write([]byte(reportFormat))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// Get looks the key up in memory, then on disk. Disk hits are promoted
// back into the LRU.
func (c *Cache) Get(key string) (*BinaryAnalysis, bool) {
	var v BinaryAnalysis
	if !c.tier.Get(key, func(blob []byte) error { return json.Unmarshal(blob, &v) }) {
		return nil, false
	}
	return &v, true
}

// Put stores the report under key in memory and, when configured, on
// disk. Serialization failures are impossible for well-formed reports;
// disk write failures are ignored (the memory tier still serves).
func (c *Cache) Put(key string, v *BinaryAnalysis) {
	if blob, err := json.Marshal(v); err == nil {
		c.tier.Put(key, blob)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.tier.Stats() }
