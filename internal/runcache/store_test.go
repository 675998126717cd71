package runcache

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
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

func TestStoreCorruptBlobIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("s", "k", payload{N: 3})
	if err := s.Put(key, payload{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(key), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatalf("corrupt blob served as a hit")
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
