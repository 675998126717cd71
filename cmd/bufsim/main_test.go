package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufsim"
)

// TestCacheVerifyFailsEveryScenario plants a cache entry that recomputes
// differently under each of the three scenarios the binary runs and
// requires every one of them to fail on it. The three used to carry
// their own copy of the observer epilogue, and the -workload copy never
// looked at the verification failures: bufsim -workload constant
// -cache-verify exited 0 on a blob that did not match.
func TestCacheVerifyFailsEveryScenario(t *testing.T) {
	s := bufsim.Scenario{
		Seed: 1, Link: bufsim.Link{Rate: 10 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond},
		BufferPackets: 20, Warmup: bufsim.Second, Measure: 2 * bufsim.Second,
	}
	scenarios := map[string]func(observers) error{
		"long-lived": func(obs observers) error {
			return runAndPrint(s, bufsim.LongLived{Flows: 5, RTTSpread: 40 * bufsim.Millisecond}, obs)
		},
		"-adversary": func(obs observers) error {
			return runAdversaryAndPrint("pulse", s, 4, false, obs)
		},
		"-workload": func(obs observers) error {
			return runProfileAndPrint(profileArgs{"constant", 0.5, 10}, s, 3, false, obs)
		},
	}
	for name, run := range scenarios {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := bufsim.OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(observers{cache: cache}); err != nil {
				t.Fatalf("cold run: %v", err)
			}
			if n := spoilResults(t, dir); n == 0 {
				t.Fatal("the cold run stored nothing to spoil")
			}
			cache.SetVerifySample(1)
			err = run(observers{cache: cache})
			if err == nil || !strings.Contains(err.Error(), "cache-verify") {
				t.Errorf("run over a spoiled entry returned %v, want a cache-verify error", err)
			}
		})
	}
}

// spoilResults rewrites the utilization in every result stored under
// dir, so each still decodes but no longer matches a recomputation. It
// returns how many it rewrote.
func spoilResults(t *testing.T, dir string) (n int) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var res map[string]any
		if json.Unmarshal(blob, &res) != nil || res["Utilization"] == nil {
			return nil // a manifest, not a result
		}
		res["Utilization"] = 0.123456
		if blob, err = json.Marshal(res); err != nil {
			return err
		}
		n++
		return os.WriteFile(path, blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
