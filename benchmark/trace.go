package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed interval of the traced run: a workload (root), a CLI
// rep, a tool invocation or one driver call inside benchmark/layers.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a workload's root span
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the traced run began
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // duration minus what child spans cover
}

// tracer keeps spans in memory until the run ends. The harness is
// single-threaded, so the open spans form a stack and a new span's parent
// is the top of it. A nil tracer records nothing: end-to-end runs pass nil.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	id := t.add(name, time.Since(t.t0).Nanoseconds(), 0)
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// add records a finished span under the innermost open one.
func (t *tracer) add(name string, start, end int64) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Workload: t.workload, Name: name, StartNS: start, EndNS: end})
	return len(t.spans) - 1
}

// write computes self times and writes the spans as JSON.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerReport is the traced run's result for one workload.
type layerReport struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`
	Digest    string             `json:"stdout_sha256"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// Reps of each kind in a traced run. The untraced ones give the wall time
// the tracing overheads and per-event costs are taken against.
const (
	traceBaseReps    = 3
	traceMetricsReps = 2
	tracePprofReps   = 2
	traceShardReps   = 2
)

// trace is the traced run of one workload: untraced reps for reference,
// reps under -metrics (with GODEBUG=gctrace=1) and under -pprof, the same
// command with sharding toggled, a cold and a warm -cache rep, and the
// isolated drivers of benchmark/layers at the workload's operating point.
func (h *harness) trace(w *workload) layerReport {
	h.tr.workload = w.name
	defer h.tr.begin(w.name)()
	m := map[string]float64{}
	lr := layerReport{Workload: w.name, Metrics: m}
	fail := func(why string) {
		lr.Failed++
		lr.Failures = append(lr.Failures, why)
		fmt.Fprintf(os.Stderr, "benchmark: %s: traced run: %s\n", w.name, why)
	}
	dir, err := h.tempDir("trace")
	if err != nil {
		fail(err.Error())
		return lr
	}
	defer os.RemoveAll(dir)

	base := h.measure(w, 1, traceBaseReps)
	lr.Attempted, lr.Failed, lr.Failures, lr.Digest = base.Attempted, base.Failed, base.Failures, base.Digest
	m["harness.rep_spread"], m["harness.steal_s"], m["harness.loadavg1"], m["harness.build_s"] = base.RepSpread, base.StealS, base.LoadAvg1, h.buildS
	if base.RawWallS == 0 {
		return lr
	}

	// traced runs n reps of w with the tracing flag appended to every
	// command, each writing its own file, and returns the fastest good rep
	// (wall 0 if none) and the files written.
	cacheN := 0
	traced := func(n int, label, flag string, o repOpts) (rep, []string) {
		var best rep
		var files []string
		for k := 0; k < n; k++ {
			o.label = label
			if flag != "" {
				o.perCmd = func(i int) []string {
					f := filepath.Join(dir, fmt.Sprintf("%s-%d-%d%s", label, k, i, flag))
					files = append(files, f)
					return []string{flag, f}
				}
			}
			if w.sweep {
				cacheN++
				o.cacheDir = filepath.Join(dir, "cache"+strconv.Itoa(cacheN))
			}
			r := h.run(w, o)
			lr.Attempted++
			if why := w.verify(r, lr.Digest); why != "" {
				fail(label + ": " + why)
			} else if best.wall == 0 || r.wall < best.wall {
				best = r
			}
		}
		return best, files
	}

	// In-situ counters and the observer's cost.
	best, files := traced(traceMetricsReps, "rep-metrics", "-metrics", repOpts{env: []string{"GODEBUG=gctrace=1"}})
	if best.wall > 0 {
		m["metrics.overhead_frac"] = best.wall/base.RawWallS - 1
		var reg registry
		for _, f := range files[len(files)-len(w.cmds):] {
			data, err := os.ReadFile(f)
			if err != nil {
				continue // fig7-style experiments publish nothing
			}
			r, err := parseRegistry(data)
			if err != nil {
				fail(err.Error())
			}
			reg.merge(r)
		}
		inSitu(m, reg, base, w, h.procsFor(w))
		cycles, gcFrac := lastGC(best.stderr)
		m["runtime.gc_cycles"], m["runtime.gc_cpu_frac"] = float64(cycles), gcFrac
	}

	// Where the CPU time goes, by layer, and the profiler's cost.
	best, files = traced(tracePprofReps, "rep-pprof", "-pprof", repOpts{})
	var shares map[string]float64
	if best.wall > 0 {
		m["profile.overhead_frac"] = best.wall/base.RawWallS - 1
		if shares, err = h.pprofShares(files); err != nil {
			fail(err.Error())
		}
		for _, layer := range cpuFracLayers {
			m[layer+".cpu_frac"] = shares[layer]
		}
	}

	// The same command with sharding toggled: speed-up and what it costs.
	sib, sharded := shardSibling(w)
	sibOpts := repOpts{cmds: sib, procs: 1}
	if !sharded {
		sibOpts.procs = min(2, h.nproc)
	}
	if sibling, _ := traced(traceShardReps, "rep-shard-sibling", "", sibOpts); sibling.wall > 0 {
		seqWall, seqCPU, parWall, parCPU, parShares := base.RawWallS, base.RawCPUS, sibling.wall, sibling.cpu, shares
		if sharded {
			seqWall, seqCPU, parWall, parCPU = parWall, parCPU, seqWall, seqCPU
		} else if profiled, prof := traced(1, "rep-shard-sibling-pprof", "-pprof", sibOpts); profiled.wall > 0 {
			if parShares, err = h.pprofShares(prof); err != nil {
				fail(err.Error())
			}
		}
		m["shard.speedup"], m["shard.cpu_ratio"], m["shard.wait_frac"] = seqWall/parWall, seqCPU/parCPU, parShares["wait"]
	}

	// The run cache: a cold rep that stores, a warm one that replays.
	cacheDir := filepath.Join(dir, "runcache")
	cacheOpts := repOpts{label: "rep-cache-cold", cacheDir: cacheDir}
	if !w.sweep {
		cacheOpts.perCmd = func(int) []string { return []string{"-cache"} }
	}
	cold := h.run(w, cacheOpts)
	cacheOpts.label = "rep-cache-warm"
	warm := h.run(w, cacheOpts)
	lr.Attempted += 2
	if why := w.verify(cold, lr.Digest); why != "" {
		fail("cache cold: " + why)
	} else if why := w.verify(warm, lr.Digest); why != "" {
		fail("cache warm: " + why)
	} else {
		c, wc := cacheStats{}, cacheStats{}
		if w.sweep {
			c, _ = parseCacheLines(cold.stderr)
			wc, _ = parseCacheLines(warm.stderr)
		} else {
			c.misses = int64(bytes.Count(cold.raw, []byte("\ncache:           miss")))
			c.stored = c.misses
			wc.hits = int64(bytes.Count(warm.raw, []byte("\ncache:           hit")))
			wc.misses = 1 - wc.hits
		}
		m["runcache.puts"], m["runcache.hits"] = float64(c.stored), float64(wc.hits)
		m["runcache.hit_frac"] = float64(wc.hits) / float64(wc.hits+wc.misses)
		m["runcache.replay_ms_per_point"] = warm.wall * 1000 / float64(max(wc.hits, 1))
		m["runcache.bytes_on_disk"] = float64(dirBytes(cacheDir))
		m["experiment.points"] = float64(c.misses)
		m["experiment.points_per_s"] = float64(c.misses) / base.RawWallS
		if wc.hits == 0 || wc.misses != 0 {
			fail(fmt.Sprintf("warm -cache rep did not replay: %+v", wc))
		}
	}

	lr.Attempted++
	h.layers(w, dir, m, fail)
	return lr
}

// inSitu fills the per-layer counts a -metrics rep publishes, and the
// ratios of them to the untraced wall time.
func inSitu(m map[string]float64, reg registry, base e2e, w *workload, procs int) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	events := reg.sum("sim.events_processed")
	m["sim.events"] = events
	m["sim.events_per_s"] = events / base.RawWallS
	m["sim.ns_per_event"] = ratio(base.RawWallS*1e9, events)
	m["sim.heap_depth_max"] = reg.max("sim.heap_depth_max")
	m["link.delivered_pkts"] = reg.sum("bottleneck.delivered_packets")
	m["link.busy_frac"] = ratio(reg.sum("bottleneck.busy_seconds"), reg.sum("sim.time_seconds"))
	enq, drop := reg.sum("bottleneck.enqueued_packets"), reg.sum("bottleneck.dropped_packets")
	m["queue.enqueued"], m["queue.dropped"], m["queue.drop_frac"] = enq, drop, ratio(drop, enq+drop)
	m["queue.occupancy_max_pkts"] = reg.max("bottleneck.occupancy_max_packets")
	sent, rtx := reg.sum("tcp.segments_sent"), reg.sum("tcp.retransmits")
	m["tcp.segments_sent"], m["tcp.retransmits"], m["tcp.retransmit_frac"] = sent, rtx, ratio(rtx, sent)
	m["tcp.acks"], m["tcp.dup_acks"] = reg.sum("tcp.acks_received"), reg.sum("tcp.dup_acks_received")
	m["tcp.timeouts"], m["tcp.flows"] = reg.sum("tcp.timeouts"), reg.sum("tcp.flows_tracked")
	// Long-lived flows are launched once (workload.StartLongLived) and never
	// complete; a profile-driven run prints what its generator did.
	m["workload.flows_launched"], m["workload.flows_completed"] = m["tcp.flows"], 0
	if launched, completed, ok := flowCounts(base.lastStdout); ok {
		m["workload.flows_launched"], m["workload.flows_completed"] = float64(launched), float64(completed)
	}
	m["experiment.core_util"] = base.RawCPUS / (float64(procs) * base.RawWallS)
}

// shardSibling is w's commands with -shards 2 added, or taken away when w
// already has it (sharded reports which).
func shardSibling(w *workload) (cmds [][]string, sharded bool) {
	for _, c := range w.cmds {
		var out []string
		had := false
		for i := 0; i < len(c); i++ {
			if c[i] == "-shards" {
				had, sharded = true, true
				i++
				continue
			}
			out = append(out, c[i])
		}
		if !had {
			out = append(out, "-shards", "2")
		}
		cmds = append(cmds, out)
	}
	return cmds, sharded
}

// pprofShares merges CPU profiles and splits their samples by layer.
func (h *harness) pprofShares(profiles []string) (map[string]float64, error) {
	defer h.tr.begin("go tool pprof -top")()
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return cpuShares(out)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// layersOutput is what benchmark/layers prints.
type layersOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Failed  []string           `json:"failed"`
	Spans   []struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	} `json:"spans"`
}

// layers builds and runs the per-layer drivers as a child. They import the
// simulator's internal packages, so an API change there can break them;
// that must cost the traced run its driver metrics and nothing else, hence
// layers.ok instead of an error.
func (h *harness) layers(w *workload, dir string, m map[string]float64, fail func(string)) {
	m["layers.ok"] = 0
	end := h.tr.begin("build benchmark/layers")
	err := h.goBuild(filepath.Join(h.root, "benchmark"), "./layers", "layers")
	end()
	if err != nil {
		fail(err.Error())
		return
	}
	end = h.tr.begin("benchmark/layers")
	defer end()
	cmd := exec.Command(h.bin("layers"), append([]string{"-tmp", dir}, w.point...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	start := time.Since(h.tr.t0).Nanoseconds()
	data, err := cmd.Output()
	if err != nil {
		fail(fmt.Sprintf("benchmark/layers: %v", err))
		return
	}
	var out layersOutput
	if err := json.Unmarshal(data, &out); err != nil {
		fail(fmt.Sprintf("benchmark/layers output: %v", err))
		return
	}
	for k, v := range out.Metrics {
		m[k] = v
	}
	for _, s := range out.Spans {
		h.tr.add(s.Name, start+s.StartNS, start+s.EndNS)
	}
	for _, name := range out.Failed {
		fail("benchmark/layers: driver " + name + " failed")
	}
	if len(out.Failed) == 0 {
		m["layers.ok"] = 1
	}
}
