package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// e2e is one end-to-end measurement of one workload. The first four
// fields are the gated metrics of BENCHMARK.json.
type e2e struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	SetupS    float64 `json:"setup_s"`

	Workload    string   `json:"workload"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	W           int      `json:"warmup_reps"`
	R           int      `json:"timed_reps"`
	RawWallS    float64  `json:"raw_wall_s"` // min rep wall before scaling by utilization
	RawCPUS     float64  `json:"raw_cpu_s"`
	Utilization float64  `json:"utilization"` // 1 for the sweep
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	Digest      string   `json:"stdout_sha256"`
	RepSpread   float64  `json:"rep_spread"` // (median - min) / min over the timed reps' wall
	StealS      float64  `json:"steal_s"`
	LoadAvg1    float64  `json:"loadavg1"`

	lastStdout []byte // kept for the traced run's parsers
}

func (e *e2e) fail(why string) {
	e.Failed++
	e.Failures = append(e.Failures, why)
	fmt.Fprintf(os.Stderr, "benchmark: %s: rep failed: %s\n", e.Workload, why)
}

// measure runs w end to end: warmups untimed reps (W), reps timed ones
// (R), then the workload's cross-checks. Tracing flags are never passed here.
//
// wall_s and cpu_s are the minimum over the timed reps — on a shared box
// noise only ever adds time — divided by the bottleneck utilization the
// run reports. The seed decides how much traffic the simulated flows get
// through, host time follows the packets delivered (events per delivered
// packet hold to 0.1–0.7% across seeds), so the division takes the seed's
// luck out and leaves host seconds per link-saturating window. The sweep
// runs fixed grids on saturated links and is not scaled.
func (h *harness) measure(w *workload, warmups, reps int) e2e {
	defer h.tr.begin("e2e")()
	e := e2e{Workload: w.name, GOMAXPROCS: h.procsFor(w), W: warmups, R: reps, Utilization: 1}
	steal0 := stealSeconds()

	var lastCache string // the sweep's most recent populated -cachedir
	defer func() { os.RemoveAll(lastCache) }()
	one := func(label string) (rep, bool) {
		o := repOpts{label: label}
		if w.sweep {
			os.RemoveAll(lastCache)
			dir, err := h.tempDir("sweep")
			if err != nil {
				e.Attempted++
				e.fail(err.Error())
				return rep{}, false
			}
			lastCache, o.cacheDir = dir, dir
		}
		r := h.run(w, o)
		e.Attempted++
		why := w.verify(r, e.Digest)
		if why == "" && w.sweep {
			why = coldSweep(r)
		}
		if why != "" {
			e.fail(why)
			return r, false
		}
		if e.Digest == "" {
			e.Digest = digest(r.stdout)
		}
		e.lastStdout = r.stdout
		return r, true
	}

	var setups, walls, cpus, rss []float64
	for i := 0; i < e.W; i++ {
		if r, ok := one("warmup"); ok {
			setups = append(setups, r.wall)
		}
	}
	for i := 0; i < e.R; i++ {
		if r, ok := one("rep"); ok {
			walls = append(walls, r.wall)
			cpus = append(cpus, r.cpu)
			rss = append(rss, float64(r.rssKB)/1024)
		}
	}
	if len(setups) > 0 {
		e.SetupS = median(setups)
	}
	if len(walls) > 0 {
		if !w.sweep {
			e.Utilization, _ = utilization(e.lastStdout) // verify accepted it
		}
		e.RawWallS, e.RawCPUS = minOf(walls), minOf(cpus)
		e.WallS, e.CPUS = e.RawWallS/e.Utilization, e.RawCPUS/e.Utilization
		e.PeakRSSMB = median(rss)
		e.RepSpread = (median(walls) - e.RawWallS) / e.RawWallS
	}

	if ref := findWorkload(w.sameAs); ref != nil {
		r := h.run(ref, repOpts{label: "reference " + ref.name})
		e.Attempted++
		if why := ref.verify(r, e.Digest); why != "" {
			e.fail("against " + ref.name + ": " + why)
		}
	}
	if w.sweep && lastCache != "" {
		r := h.run(w, repOpts{label: "warm replay", cacheDir: lastCache})
		e.Attempted++
		why := w.verify(r, e.Digest)
		if c, err := parseCacheLines(r.stderr); why == "" && (err != nil || c.misses != 0 || c.hits == 0) {
			why = fmt.Sprintf("warm replay was not 100%% hits: %+v %v", c, err)
		}
		if why != "" {
			e.fail("warm replay: " + why)
		}
	}
	e.StealS = stealSeconds() - steal0
	e.LoadAvg1 = loadAvg1()
	return e
}

// coldSweep checks that a sweep rep on a fresh -cachedir simulated every
// point and stored it.
func coldSweep(r rep) string {
	c, err := parseCacheLines(r.stderr)
	if err != nil {
		return err.Error()
	}
	if c.hits != 0 || c.misses == 0 || c.stored != c.misses {
		return fmt.Sprintf("cold sweep expected only misses, all stored: %+v", c)
	}
	return ""
}

// stealSeconds is the CPU time the hypervisor has given to someone else,
// from /proc/stat (0 where that does not exist).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(data) + " 0")[0], 64)
	return v
}
