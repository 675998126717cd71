package runcache

import (
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	N int     `json:"n"`
	X float64 `json:"x"`
}

func TestStoreGetPutRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("s", "k", payload{N: 1})
	if _, ok := s.Get(key); ok {
		t.Fatalf("hit on an empty store")
	}
	want := payload{N: 42, X: 0.1 + 0.2}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	blob, ok := s.Get(key)
	if !ok {
		t.Fatalf("miss after Put")
	}
	var got payload
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mangled the value: got %+v want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 puts=1", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestStorePutUnmarshalableValue(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("s", "k", payload{N: 2})
	if err := s.Put(key, payload{X: math.NaN()}); err == nil {
		t.Fatalf("expected an error storing NaN")
	}
	if _, ok := s.Get(key); ok {
		t.Fatalf("failed Put left a readable blob")
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Fatalf("put_errors = %d, want 1", st.PutErrors)
	}
}

// TestStoreCorruptBlobIsMiss: a blob cut short — by a crash, a full
// disk, a copy that stopped — is a miss at every length, the empty file
// included, and never a hit.
func TestStoreCorruptBlobIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("s", "k", payload{N: 3})
	if err := s.Put(key, payload{N: 3, X: 1.5}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if err := os.WriteFile(s.objectPath(key), blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("the blob's first %d of %d bytes %q served as a hit", n, len(blob), blob[:n])
		}
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != int64(len(blob)) {
		t.Errorf("hits %d, misses %d; want 0 and one per prefix (%d)", st.Hits, st.Misses, len(blob))
	}
}

// TestWritersRaceOnOneKey puts distinct valid blobs under one key from
// several goroutines while others read it: the temp-file-and-rename
// write means a reader sees either no blob or one complete blob some
// writer wrote, never a torn mix, and no temp file outlives its Put.
func TestWritersRaceOnOneKey(t *testing.T) {
	type blob struct {
		Writer, Round int
		Pad           string // long enough that a torn write could show
	}
	const writers, readers, rounds = 4, 4, 40
	want := func(w, r int) blob {
		return blob{Writer: w, Round: r, Pad: strings.Repeat(string(rune('a'+w)), 4096+r)}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("s", "race", payload{N: 9})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.Put(key, want(w, r)); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
				}
			}
		}(w)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				raw, ok := s.Get(key)
				if !ok {
					continue
				}
				var got blob
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Errorf("hit does not decode: %v", err)
					continue
				}
				if got.Writer < 0 || got.Writer >= writers || got.Round < 0 || got.Round >= rounds ||
					!reflect.DeepEqual(got, want(got.Writer, got.Round)) {
					t.Errorf("hit is no blob a writer wrote: writer %d round %d, %d-byte pad", got.Writer, got.Round, len(got.Pad))
				}
			}
		}()
	}
	wg.Wait()

	err = filepath.WalkDir(s.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != writers*rounds || st.PutErrors != 0 {
		t.Errorf("stats = %+v, want %d puts and no put errors", st, writers*rounds)
	}
}

func TestShouldVerifyDeterministicSampling(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.ShouldVerify(Key("s", "k", payload{N: 1})) {
		t.Fatalf("verification fired with sampling disabled")
	}
	s.SetVerifySample(0.25)
	sampled := 0
	const n = 400
	for i := 0; i < n; i++ {
		key := Key("s", "k", payload{N: i})
		first := s.ShouldVerify(key)
		if first != s.ShouldVerify(key) {
			t.Fatalf("ShouldVerify not deterministic for key %s", key)
		}
		if first {
			sampled++
		}
	}
	// The key hash is uniform, so ~25% of keys land in the sample.
	if sampled < n/8 || sampled > n/2 {
		t.Fatalf("sampled %d of %d keys at fraction 0.25", sampled, n)
	}
	s.SetVerifySample(1)
	if !s.ShouldVerify(Key("s", "k", payload{N: 9})) {
		t.Fatalf("fraction 1.0 must verify every key")
	}
}

func TestRecordVerifyFailures(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.RecordVerify("k1", "long-lived", true)
	s.RecordVerify("k2", "trace", false)
	st := s.Stats()
	if st.Verified != 2 || st.VerifyFailures != 1 {
		t.Fatalf("stats = %+v, want verified=2 failures=1", st)
	}
	fails := s.VerifyFailures()
	if len(fails) != 1 || fails[0].Key != "k2" || fails[0].Kind != "trace" {
		t.Fatalf("failures = %+v", fails)
	}
}
