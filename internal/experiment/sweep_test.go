package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bufsim/internal/runcache"
	"bufsim/internal/units"
)

// blobPath is where a store rooted at dir keeps the blob of key.
func blobPath(dir, key string) string {
	return filepath.Join(dir, "objects", key[:2], key+".json")
}

// TestWrongShapeBlobIsAMiss pins the bugfix: a blob that json.Unmarshal
// accepts but that is not the run's result — an empty object, null,
// another kind's result — used to be served as a hit carrying the zero
// result (utilization 0 on a warm cache). It is a miss now: the run is
// recomputed, the blob overwritten, and the next lookup a real hit.
func TestWrongShapeBlobIsAMiss(t *testing.T) {
	cfg := LongLivedConfig{N: 6, BufferPackets: 15,
		Scenario: Scenario{Seed: 4, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: units.Second, Measure: 2 * units.Second}}}
	live := RunLongLived(cfg)
	if live.Utilization == 0 {
		t.Fatal("the live run carried nothing; the test cannot tell a zero result from it")
	}
	key := pointKey("long-lived", cfg.withDefaults())
	for _, poison := range []string{`{}`, `null`, `{"Label":"x","AFCT":3}`} {
		t.Run(poison, func(t *testing.T) {
			dir := t.TempDir()
			store, err := runcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cached := cfg
			cached.Cache = store
			RunLongLived(cached) // stores the real blob
			if err := os.WriteFile(blobPath(dir, key), []byte(poison), 0o644); err != nil {
				t.Fatal(err)
			}
			before := store.Stats()
			if got := RunLongLived(cached); got != live {
				t.Errorf("served %+v from the blob, want the live %+v", got, live)
			}
			if st := store.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+1 {
				t.Errorf("stats went %+v -> %+v, want one more miss and no hit", before, st)
			}
			want, _ := json.Marshal(live)
			if blob, _ := os.ReadFile(blobPath(dir, key)); !bytes.Equal(blob, want) {
				t.Errorf("blob is %s after the recompute, want it overwritten with %s", blob, want)
			}
			if got := RunLongLived(cached); got != live || store.Stats().Hits != before.Hits+1 {
				t.Errorf("the rewritten blob did not replay as a hit: %+v, %+v", got, store.Stats())
			}
		})
	}
}

// FuzzCachedBlob stores arbitrary bytes under a real key and looks them
// up as two result shapes, a flat one and one with pointers and slices.
// Whatever the bytes, the lookup returns either the live result or a
// value whose JSON is the blob byte for byte, and never panics.
func FuzzCachedBlob(f *testing.F) {
	for _, seed := range []string{`{}`, `null`, `{"Label":"x","AFCT":3}`, `[]`, `"x"`, `{"N":3}`,
		`{"N":0,"BufferPackets":0,"Utilization":0.5,"LossRate":0,"MeanQueue":0,"RetransmitFraction":0,"Timeouts":0,"QueueDelayMean":0,"QueueDelayP99":0,"Fairness":0}`,
		`{"BDPPackets":1,"Cwnd":{"Name":"c","Times":[1],"Values":[2]},"Queue":null}`} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	store, err := runcache.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	env := RunEnv{Cache: store}
	cfg := LongLivedConfig{N: 3}.withDefaults()
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkBlob(t, dir, env, "long-lived", cfg, blob, LongLivedResult{N: 3, Utilization: 0.9, Fairness: 1})
		checkBlob(t, dir, env, "single-flow", cfg, blob, SingleFlowResult{BDPPackets: 7, Cwnd: nil})
	})
}

// checkBlob writes blob under (kind, cfg)'s key and looks it up through
// memoRun with live as the computation.
func checkBlob[T any](t *testing.T, dir string, env RunEnv, kind string, cfg any, blob []byte, live T) {
	t.Helper()
	path := blobPath(dir, pointKey(kind, cfg))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got := memoRun(env, kind, cfg, func() T { return live })
	if reflect.DeepEqual(got, live) {
		return
	}
	if enc, err := json.Marshal(got); err != nil || !bytes.Equal(enc, blob) {
		t.Errorf("served %+v for blob %q: neither the live result nor the blob's value", got, blob)
	}
}
