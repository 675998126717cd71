package runcache

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Store is a content-addressed result cache rooted at a directory.
// Blobs live under objects/<key[:2]>/<key>.json, and that is all it
// holds: an interrupted sweep resumes by replaying its finished points
// as hits. All writes are atomic (temp file + rename), so a crash never
// leaves a torn blob. A Store is safe for concurrent use by the sweep
// workers.
type Store struct {
	dir string

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	putErrors atomic.Int64
	verified  atomic.Int64

	verifyFrac float64

	mu       sync.Mutex
	failures []VerifyFailure

	// OnPut, when set, is called after each successful Put with the
	// stored key. Tests use it to interrupt a sweep after exactly k
	// completed points.
	OnPut func(key string)
}

// Stats is a snapshot of cache activity counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	PutErrors int64 `json:"put_errors"`
	// Verified counts hits that were recomputed by verification
	// sampling; VerifyFailures counts those whose recomputation did
	// not reproduce the stored bytes.
	Verified       int64 `json:"verified"`
	VerifyFailures int64 `json:"verify_failures"`
}

// HitRate is hits / (hits + misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// VerifyFailure records one sampled hit whose recomputation disagreed
// with the stored blob — evidence of nondeterminism or a stale salt.
type VerifyFailure struct {
	Key  string
	Kind string
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("runcache: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the cache root directory.
func (s *Store) Dir() string { return s.dir }

// objectPath maps a key to its blob location, fanned out by the first
// two hex digits to keep directories small.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// Get returns the blob stored under key, if any. Unreadable or missing
// blobs count as misses.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	b, err := os.ReadFile(s.objectPath(key))
	if err != nil || !json.Valid(b) {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return b, true
}

// Reject takes back one hit Get served: the caller found the blob
// unusable — it does not decode into the result it stands for — so the
// lookup counts as a miss, and the caller recomputes and Puts over it.
func (s *Store) Reject() {
	s.hits.Add(-1)
	s.misses.Add(1)
}

// Put stores v under key as JSON. Marshal failures (e.g. NaN in a
// result) make the entry uncacheable: the error is counted and
// returned, and the caller should fall back to the computed value.
func (s *Store) Put(key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("runcache: marshal %s: %w", key, err)
	}
	if err := s.writeAtomic(s.objectPath(key), b); err != nil {
		s.putErrors.Add(1)
		return err
	}
	s.puts.Add(1)
	if s.OnPut != nil {
		s.OnPut(key)
	}
	return nil
}

// writeAtomic writes data to path via a temp file and rename.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("runcache: write %s: %w", path, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// SetVerifySample enables verification sampling: roughly the given
// fraction of hits (chosen deterministically by key, so repeated runs
// verify the same entries) are recomputed and compared byte-for-byte
// against the stored blob.
func (s *Store) SetVerifySample(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	s.verifyFrac = frac
}

// ShouldVerify reports whether a hit on key falls in the verification
// sample. The decision hashes only the key, so it is stable across runs
// and independent of sweep order.
func (s *Store) ShouldVerify(key string) bool {
	if s.verifyFrac <= 0 {
		return false
	}
	raw, err := hex.DecodeString(key[:16])
	if err != nil || len(raw) < 8 {
		return true
	}
	u := binary.BigEndian.Uint64(raw)
	return float64(u)/float64(^uint64(0)) < s.verifyFrac
}

// RecordVerify logs the outcome of one sampled recomputation.
func (s *Store) RecordVerify(key, kind string, ok bool) {
	s.verified.Add(1)
	if ok {
		return
	}
	s.mu.Lock()
	s.failures = append(s.failures, VerifyFailure{Key: key, Kind: kind})
	s.mu.Unlock()
}

// VerifyFailures returns all recorded verification mismatches.
func (s *Store) VerifyFailures() []VerifyFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]VerifyFailure(nil), s.failures...)
}

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	nfail := int64(len(s.failures))
	s.mu.Unlock()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		PutErrors:      s.putErrors.Load(),
		Verified:       s.verified.Load(),
		VerifyFailures: nfail,
	}
}
