package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// stableOutput drops the lines of a CLI's stdout that legitimately differ
// between two runs of the same seed — wall-clock lines ("(fig10 in 0.3s)"),
// the telemetry/metrics file notes and the cache hit-or-miss note — so the
// rest can be compared byte for byte.
func stableOutput(stdout []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(stdout, []byte("\n")) {
		switch {
		case bytes.HasPrefix(line, []byte("(")),
			bytes.HasPrefix(line, []byte("telemetry:")),
			bytes.HasPrefix(line, []byte("wrote ")),
			bytes.HasPrefix(line, []byte("cache:")):
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var (
	measuredRe = regexp.MustCompile(`(?m)^measured:\s+([0-9.]+)% utilization`)
	flowsRe    = regexp.MustCompile(`(?m)^flows:.* (\d+) launched;.* over (\d+) completed`)
	cacheRe    = regexp.MustCompile(`(?m)^cache: (\d+) hits, (\d+) misses .*, (\d+) stored`)
	gcRe       = regexp.MustCompile(`(?m)^gc (\d+) @[0-9.]+s (\d+)%:`)
)

// utilization reads the bottleneck utilization (0..1] from bufsim's
// "measured:" line.
func utilization(stdout []byte) (float64, error) {
	m := measuredRe.FindSubmatch(stdout)
	if m == nil {
		return 0, fmt.Errorf("no measured: line")
	}
	pct, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return 0, fmt.Errorf("measured: line: %v", err)
	}
	if pct <= 0 || pct > 100 {
		return 0, fmt.Errorf("utilization %v%% outside (0, 100]", pct)
	}
	return pct / 100, nil
}

// flowCounts reads launched and completed flows from the "flows:" line a
// profile-driven bufsim run prints; ok is false for long-lived runs.
func flowCounts(stdout []byte) (launched, completed int64, ok bool) {
	m := flowsRe.FindSubmatch(stdout)
	if m == nil {
		return 0, 0, false
	}
	launched, _ = strconv.ParseInt(string(m[1]), 10, 64)
	completed, _ = strconv.ParseInt(string(m[2]), 10, 64)
	return launched, completed, true
}

// cacheStats totals paperexp's "cache: N hits, M misses (..), P stored"
// stderr lines; a sweep rep prints one per command.
type cacheStats struct{ hits, misses, stored int64 }

func parseCacheLines(stderr []byte) (cacheStats, error) {
	var c cacheStats
	all := cacheRe.FindAllSubmatch(stderr, -1)
	if len(all) == 0 {
		return c, fmt.Errorf("no cache: line")
	}
	for _, m := range all {
		for i, field := range []*int64{&c.hits, &c.misses, &c.stored} {
			n, _ := strconv.ParseInt(string(m[i+1]), 10, 64) // the pattern admits digits only
			*field += n
		}
	}
	return c, nil
}

// hasTable reports whether paperexp printed the table of experiment id:
// its "=== id ===" banner followed by at least two result lines.
func hasTable(stdout []byte, id string) bool {
	_, after, found := bytes.Cut(stdout, []byte("=== "+id+" ===\n"))
	if !found {
		return false
	}
	rows := 0
	for _, line := range bytes.Split(after, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 || line[0] == '(' {
			break
		}
		rows++
	}
	return rows >= 2
}

// lastGC reads the last GODEBUG=gctrace=1 line: the number of collections
// and the share of CPU time the collector has used since the program began.
func lastGC(stderr []byte) (cycles int64, cpuFrac float64) {
	all := gcRe.FindAllSubmatch(stderr, -1)
	if len(all) == 0 {
		return 0, 0
	}
	m := all[len(all)-1]
	cycles, _ = strconv.ParseInt(string(m[1]), 10, 64)
	pct, _ := strconv.ParseFloat(string(m[2]), 64)
	return cycles, pct / 100
}

// registry is the -metrics JSON both CLIs write. paperexp merges one
// registry per sweep cell under "exp/cell/" prefixes, so lookups go by the
// last path element and combine across cells.
type registry struct {
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

func parseRegistry(data []byte) (registry, error) {
	var r registry
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("metrics JSON: %v", err)
	}
	return r, nil
}

func baseName(key string) string { return key[strings.LastIndexByte(key, '/')+1:] }

// sum adds every counter or gauge whose last path element is name.
func (r registry) sum(name string) float64 {
	var t float64
	for k, v := range r.Counters {
		if baseName(k) == name {
			t += v
		}
	}
	for k, v := range r.Gauges {
		if baseName(k) == name {
			t += v
		}
	}
	return t
}

// max is the largest gauge whose last path element is name.
func (r registry) max(name string) float64 {
	var m float64
	for k, v := range r.Gauges {
		if baseName(k) == name && v > m {
			m = v
		}
	}
	return m
}

// merge folds another registry in (the sweep writes one file per command).
func (r *registry) merge(o registry) {
	if r.Counters == nil {
		r.Counters, r.Gauges = map[string]float64{}, map[string]float64{}
	}
	for k, v := range o.Counters {
		r.Counters[k] += v
	}
	for k, v := range o.Gauges {
		r.Gauges[k] = v
	}
}

// cpuFracLayers are the layers whose share of a CPU profile is reported as
// <layer>.cpu_frac. What layerOf files elsewhere (packet, runcache, metrics
// and "other": main, units, stats, the standard library) is small.
var cpuFracLayers = []string{"sim", "link", "queue", "tcp", "topology", "workload", "experiment", "runtime"}

// layerOf maps a profiled function to its layer. internal/node is glue
// between hosts and the dumbbell and counts as topology.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "bufsim/internal/"); ok {
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		switch pkg {
		case "node":
			return "topology"
		case "sim", "link", "queue", "tcp", "packet", "topology", "workload", "experiment", "runcache", "metrics":
			return pkg
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "sync.", "sync/", "internal/sync"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// waits reports whether a runtime function is one a goroutine or thread
// sits in while it has nothing to run: parked, on a futex, spinning for
// work, or inside package sync. Under -shards this is barrier wait.
func waits(fn string) bool {
	for _, p := range []string{"sync.", "sync/", "internal/sync", "runtime.futex", "runtime.park", "runtime.gopark",
		"runtime.note", "runtime.sema", "runtime.schedule", "runtime.findRunnable", "runtime.stopm", "runtime.startm",
		"runtime.wakep", "runtime.mcall", "runtime.osyield", "runtime.usleep", "runtime.runqgrab", "runtime.stealWork",
		"runtime.goready", "runtime.ready", "runtime.resetspinning", "runtime.mPark", "runtime.procyield"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuShares aggregates the flat% column of `go tool pprof -top` by layer,
// plus the share spent waiting (see waits) under the key "wait". Shares
// are fractions of the profile's total samples.
func cpuShares(top []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(top))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: %q: %v", sc.Text(), err)
		}
		shares[layerOf(f[5])] += pct / 100
		if waits(f[5]) {
			shares["wait"] += pct / 100
		}
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return shares, nil
}
