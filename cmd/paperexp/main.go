// Command paperexp regenerates the figures and tables of "Sizing Router
// Buffers" (SIGCOMM 2004) and the extensions beyond the paper's own
// artifacts. Each experiment id matches DESIGN.md's per-experiment
// index; the ids live in one table (experiments, below) and
//
//	paperexp -help
//
// lists them with what each one shows. -exp all runs every one.
//
// -quick shrinks every experiment (lower rates, fewer points, shorter
// windows) for a fast smoke run; full runs use the paper's parameters.
// -csv DIR writes the figure time series / curves as CSV files; -svg DIR
// renders the figures as SVG.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/plot"
	"bufsim/internal/runcache"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperexp: ")
	var (
		exp      = flag.String("exp", "all", "experiment id (listed below), or all")
		quick    = flag.Bool("quick", false, "scaled-down parameters for a fast run")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csvDir   = flag.String("csv", "", "directory to write CSV series into (optional)")
		svgDir   = flag.String("svg", "", "directory to write SVG figures into (optional)")
		metOut   = flag.String("metrics", "", "write run telemetry to this JSON file")
		cpuprof  = flag.String("pprof", "", "write a CPU profile to this file")
		par      = flag.Int("parallel", 0, "max simulations in flight per sweep (0: all CPUs); results are identical at any setting")
		shards   = flag.Int("shards", 0, "parallel event shards inside each simulation (0: sequential kernel); results are identical at any setting")
		auditOn  = flag.Bool("audit", false, "run every experiment under the conservation-law checker; violations are logged and the run exits nonzero")
		cacheOn  = flag.Bool("cache", false, "memoize per-point results in a content-addressed store; a re-run with identical parameters replays from disk")
		cacheDir = flag.String("cachedir", filepath.Join("results", "cache"), "directory for the -cache store")
		resume   = flag.Bool("resume", false, "continue an interrupted run from its checkpoint manifests (implies -cache)")
		verify   = flag.Bool("cache-verify", false, "recompute a sample of cache hits and fail on any digest mismatch (implies -cache)")
		wlArg    = flag.String("workload", "", "workload profile for the flashcrowd experiment: a preset name (see bufsim.ProfileNames) or a profile .json file")
		advArg   = flag.String("adversary", "", "restrict -exp adversarial to one pattern ("+strings.Join(adversary.PatternNames(), ", ")+"); default all")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: paperexp [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(out, "\nexperiments (-exp):")
		for _, e := range experiments {
			fmt.Fprintf(out, "  %-12s %s\n", e.id, e.doc)
		}
		fmt.Fprintf(out, "  %-12s every one above, in that order\n", "all")
	}
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// SIGINT/SIGTERM cancel the sweeps between points (in-flight points
	// finish and are cached); runAll then stops short of marking the
	// interrupted experiment done.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := runner{quick: *quick, seed: *seed, csvDir: *csvDir, svgDir: *svgDir, workload: *wlArg, adversary: *advArg,
		env: experiment.RunEnv{Ctx: ctx, Parallelism: *par, Shards: *shards}}
	if *resume || *verify {
		*cacheOn = true
	}
	if *cacheOn {
		store, err := runcache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		if *verify {
			store.SetVerifySample(verifySample)
		}
		r.env.Cache = store
		r.env.Resume = *resume
	}
	if *metOut != "" {
		r.metrics = metrics.New()
	}
	if *auditOn {
		// Log the first violations as they happen (the auditor itself also
		// stores a bounded sample); the summary below reports the total.
		var logged int64
		r.env.Audit = audit.New(audit.OnViolation(func(v audit.Violation) {
			if logged < 20 {
				log.Printf("audit: %s", v)
			}
			logged++
		}))
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentIDs()
	}
	if err := r.runAll(ids); err != nil {
		log.Fatal(err)
	}
	if cache := r.env.Cache; cache != nil {
		s := cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%.0f%% hit rate), %d stored, %d verified\n",
			s.Hits, s.Misses, 100*s.HitRate(), s.Puts, s.Verified)
		if fails := cache.VerifyFailures(); len(fails) > 0 {
			for _, f := range fails {
				log.Printf("cache-verify: %s point %s recomputed differently", f.Kind, f.Key[:12])
			}
			log.Fatalf("cache-verify: %d of %d sampled hits mismatched", len(fails), s.Verified)
		}
	}
	if r.metrics != nil {
		f, err := os.Create(*metOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.metrics.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *metOut)
	}
	if aud := r.env.Audit; aud != nil {
		if n := aud.Count(); n > 0 {
			log.Fatalf("audit: %d invariant violation(s); first stored:\n%s", n, aud)
		}
		fmt.Println("audit: all invariants held")
	}
}

type runner struct {
	quick     bool
	seed      int64
	csvDir    string
	svgDir    string
	workload  string // -workload: profile preset name or .json path
	adversary string // -adversary: restrict the adversarial sweep to one pattern
	// env is what -parallel, -shards, -audit, -cache, -resume and the
	// signal context add up to; every experiment config embeds it as it
	// is. Its Metrics stays nil — see telemetry.
	env     experiment.RunEnv
	metrics *metrics.Registry // the -metrics master dump, else nil
}

// verifySample is the fraction of cache hits -cache-verify recomputes.
const verifySample = 0.25

// runAll runs the experiments in order. With a cache, the run manifest
// records which experiments of this exact invocation have already
// printed their output, so -resume skips straight to the first
// unfinished one. The sweeps return normally when the context is
// cancelled — with the unfinished rows of their table still zero — so an
// experiment that ends under a cancelled context is reported as
// interrupted and never marked done, or -resume would skip it for good.
func (r runner) runAll(ids []string) error {
	var man *runcache.RunManifest
	if r.env.Cache != nil {
		runKey := runcache.Key("paperexp-run-v1", "run", struct {
			Ids   []string
			Quick bool
			Seed  int64
		}{ids, r.quick, r.seed})
		man = r.env.Cache.Run(runKey, r.env.Resume)
	}
	for _, id := range ids {
		if man.IsDone(id) {
			fmt.Printf("=== %s === (done in a previous run, skipped)\n\n", id)
			continue
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", id)
		if err := r.run(id); err != nil {
			return err
		}
		if ctx := r.env.Ctx; ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("interrupted during %s; rerun with -resume", id)
		}
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		man.MarkDone(id)
	}
	man.Finish()
	return nil
}

// telemetry is env for the experiments that publish telemetry: with
// -metrics it carries a fresh registry for mergeMetrics to fold into the
// master dump, else it is env itself (telemetry disabled).
func (r runner) telemetry() experiment.RunEnv {
	env := r.env
	if r.metrics != nil {
		env.Metrics = metrics.New()
	}
	return env
}

// mergeMetrics folds one experiment's registry into the master dump under
// the experiment id.
func (r runner) mergeMetrics(id string, child *metrics.Registry) {
	if r.metrics != nil && child != nil {
		r.metrics.Merge(id, child)
	}
}

// writeSVG renders a chart into the svg directory, if one was requested.
func (r runner) writeSVG(name string, c *plot.Chart) error {
	if r.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.svgDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.svgDir, name+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Render(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// experiments is every experiment id in the order -exp all runs them.
// The dispatch, the usage text and the unknown-id error all read this
// one table.
var experiments = []struct {
	id, doc string
	run     func(runner) error
}{
	{"fig2", "single-flow sawtooth at B = RTT x C, the rule of thumb (fig3 is the same run)",
		func(r runner) error { return r.singleFlow(1.0, "fig2_rule_of_thumb") }},
	{"fig4", "underbuffered single flow",
		func(r runner) error { return r.singleFlow(0.125, "fig4_underbuffered") }},
	{"fig5", "overbuffered single flow",
		func(r runner) error { return r.singleFlow(2.0, "fig5_overbuffered") }},
	{"fig6", "aggregate-window distribution vs Gaussian", runner.windowDist},
	{"fig7", "min buffer vs n for utilization targets", runner.minBuffer},
	{"fig8", "min buffer for short flows vs the M/G/1 model", runner.shortFlows},
	{"fig9", "AFCT: RTTxC vs RTTxC/sqrt(n) buffers",
		func(r runner) error { return r.afct(workload.GeometricSize(14), "fig9") }},
	{"fig10", "the Cisco-GSR utilization table (model vs sim)",
		func(r runner) error { return r.table(false) }},
	{"fig11", "the production-mix table", runner.production},
	{"sync", "synchronization vs flow count ablation", runner.sync},
	{"red", "fig10 under RED", func(r runner) error { return r.table(true) }},
	{"pareto", "fig9 with bounded-Pareto flow sizes",
		func(r runner) error { return r.afct(workload.ParetoSize{Shape: 1.2, Min: 2, Max: 2000}, "pareto") }},
	{"pacing", "paced vs ACK-clocked senders at tiny buffers", runner.pacing},
	{"smooth", "slow access links vs the M/D/1 bound", runner.smoothing},
	{"internet2", "the §5.3 backbone at 0.5% of a 1s buffer", runner.backbone},
	{"multihop", "per-link sqrt(n) rule on two bottlenecks", runner.multihop},
	{"variants", "Reno / NewReno / SACK / Tahoe robustness", runner.variants},
	{"ecn", "RED marking vs dropping", runner.ecn},
	{"harpoon", "closed-loop session traffic (§5.2 methodology)", runner.harpoon},
	{"rttspread", "RTT heterogeneity vs synchronization (§3)", runner.rttSpread},
	{"codel", "CoDel vs drop-tail at the sqrt(n) rule and at RTTxC", runner.codel},
	{"ccfamilies", "buffer requirement vs n per CC family (CUBIC and BBR against the 2004 sqrt rule)", runner.ccFamilies},
	{"flashcrowd", "buffer sizes vs a surge where arrivals and the long-lived population n(t) spike together (-workload swaps the profile shape)", runner.flashCrowd},
	{"adversarial", "worst-case traffic vs the buffer ladder: pulse trains, lockstep AIMD, a loaded parking lot (-adversary restricts to one pattern)", runner.adversarial},
	{"probe", "black-box probe: estimate buffer size and classify the drop discipline of known queues, then score the answers", runner.probeLadder},
}

func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

func (r runner) run(id string) error {
	if id == "fig3" {
		id = "fig2"
	}
	for _, e := range experiments {
		if e.id == id {
			return e.run(r)
		}
	}
	return fmt.Errorf("unknown experiment %q (want %s or all)", id, strings.Join(experimentIDs(), ", "))
}

func (r runner) writeCSV(name string, series ...*trace.Series) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteCSV(f, series...); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func (r runner) singleFlow(factor float64, name string) error {
	cfg := experiment.SingleFlowConfig{BufferFactor: factor, RunEnv: r.telemetry()}
	if r.quick {
		cfg.Warmup, cfg.Measure = 60*units.Second, 60*units.Second
	}
	res := experiment.RunSingleFlow(cfg)
	r.mergeMetrics(name, cfg.Metrics)
	fmt.Printf("BDP %d pkts, buffer %d pkts (%.3gx)\n", res.BDPPackets, res.BufferPackets, factor)
	fmt.Printf("utilization %.2f%%, mean queue %.1f pkts, min queue seen %.0f pkts\n",
		100*res.Utilization, res.MeanQueue, res.MinQueueSeen)
	fmt.Println(trace.ASCIIPlot(res.Cwnd.Window(res.Cwnd.Times[0], res.Cwnd.Times[0]+60), 72, 10))
	fmt.Println(trace.ASCIIPlot(res.Queue.Window(res.Queue.Times[0], res.Queue.Times[0]+60), 72, 8))
	if err := r.writeCSV(name, res.Cwnd, res.Queue); err != nil {
		return err
	}
	cwnd := res.Cwnd.Window(res.Cwnd.Times[0], res.Cwnd.Times[0]+60).Downsample(1200)
	qp := res.Queue.Window(res.Queue.Times[0], res.Queue.Times[0]+60).Downsample(1200)
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Single flow, B = %.3gx RTTxC (util %.1f%%)", factor, 100*res.Utilization),
		XLabel: "time (s)", YLabel: "packets",
	}
	chart.Add("cwnd W(t)", plot.Line, cwnd.Times, cwnd.Values)
	chart.Add("queue Q(t)", plot.Line, qp.Times, qp.Values)
	return r.writeSVG(name, chart)
}

func (r runner) windowDist() error {
	cfg := experiment.WindowDistConfig{Seed: r.seed, N: 200, RunEnv: r.env}
	if r.quick {
		cfg.N = 80
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 30*units.Second
	}
	res := experiment.RunWindowDist(cfg)
	if err := experiment.Render(os.Stdout, res); err != nil {
		return err
	}
	hist := &trace.Series{Name: "density"}
	normal := &trace.Series{Name: "normal_fit"}
	for i := 0; i < res.Histogram.NumBins(); i++ {
		center, _ := res.Histogram.Bin(i)
		hist.Times = append(hist.Times, center)
		hist.Values = append(hist.Values, res.Histogram.Density(i))
		z := (center - res.Mean) / res.StdDev
		normal.Times = append(normal.Times, center)
		normal.Values = append(normal.Values, math.Exp(-z*z/2)/(res.StdDev*math.Sqrt(2*math.Pi)))
	}
	if err := r.writeCSV("fig6_window_distribution", hist, normal); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Aggregate window distribution, n=%d (KS %.3f)", res.N, res.KS),
		XLabel: "sum of congestion windows (packets)", YLabel: "probability density",
	}
	chart.Add("measured", plot.Line, hist.Times, hist.Values)
	chart.Add("normal fit", plot.Line, normal.Times, normal.Values)
	return r.writeSVG("fig6_window_distribution", chart)
}

func (r runner) minBuffer() error {
	cfg := experiment.MinBufferConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{25, 50, 100, 200}
		cfg.Targets = []float64{0.98, 0.995}
		cfg.LadderPoints = 7
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	res := experiment.RunMinBufferSweep(cfg)
	if err := experiment.Render(os.Stdout, res); err != nil {
		return err
	}
	curve := &trace.Series{Name: "utilization"}
	for _, s := range res.Ladder {
		curve.Times = append(curve.Times, float64(s.N)*1e6+float64(s.Buffer))
		curve.Values = append(curve.Values, s.Utilization)
	}
	if err := r.writeCSV("fig7_ladder", curve); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  "Minimum buffer vs number of long-lived flows",
		XLabel: "flows n", YLabel: "buffer (packets)",
		XLog: true, YLog: true,
	}
	byTarget := map[float64][][2]float64{}
	var targets []float64
	var rule [][2]float64
	seen := map[int]bool{}
	for _, p := range res.Points {
		if _, ok := byTarget[p.Target]; !ok {
			targets = append(targets, p.Target)
		}
		byTarget[p.Target] = append(byTarget[p.Target], [2]float64{float64(p.N), float64(p.MinBuffer)})
		if !seen[p.N] {
			seen[p.N] = true
			rule = append(rule, [2]float64{float64(p.N), float64(p.SqrtRule)})
		}
	}
	addSeries := func(name string, pts [][2]float64, style plot.Style) {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		chart.Add(name, style, xs, ys)
	}
	for _, target := range targets {
		addSeries(fmt.Sprintf("min buffer @ %.1f%%", 100*target), byTarget[target], plot.LinePoints)
	}
	addSeries("RTTxC/sqrt(n)", rule, plot.Line)
	return r.writeSVG("fig7_min_buffer", chart)
}

func (r runner) shortFlows() error {
	cfg := experiment.ShortFlowBufferConfig{Seed: r.seed, RunEnv: r.telemetry()}
	if r.quick {
		cfg.Rates = []units.BitRate{20 * units.Mbps, 60 * units.Mbps}
		cfg.Warmup, cfg.Measure = 5*units.Second, 15*units.Second
	} else {
		// The figure's x-axis: sweep the flow length (burst structure).
		cfg.FlowLens = []int64{6, 14, 30, 62}
	}
	points := experiment.RunShortFlowBuffer(cfg)
	r.mergeMetrics("fig8", cfg.Metrics)
	if err := experiment.Render(os.Stdout, points); err != nil {
		return err
	}

	chart := &plot.Chart{
		Title:  "Short flows: min buffer for AFCT within 12.5% of infinite",
		XLabel: "flow length (segments)", YLabel: "buffer (packets)",
	}
	byRate := map[units.BitRate][][2]float64{}
	var rates []units.BitRate
	var model [][2]float64
	seenLen := map[int64]bool{}
	for _, p := range points {
		if _, ok := byRate[p.Rate]; !ok {
			rates = append(rates, p.Rate)
		}
		byRate[p.Rate] = append(byRate[p.Rate], [2]float64{float64(p.FlowLen), float64(p.MinBuffer)})
		if !seenLen[p.FlowLen] {
			seenLen[p.FlowLen] = true
			model = append(model, [2]float64{float64(p.FlowLen), p.ModelBuffer})
		}
	}
	add := func(name string, pts [][2]float64, style plot.Style) {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		chart.Add(name, style, xs, ys)
	}
	for _, rate := range rates {
		add(rate.String(), byRate[rate], plot.LinePoints)
	}
	add("M/G/1 model (P=0.025)", model, plot.Line)
	return r.writeSVG("fig8_short_flow_buffer", chart)
}

func (r runner) afct(sizes workload.SizeDist, name string) error {
	cfg := experiment.AFCTComparisonConfig{Seed: r.seed, Sizes: sizes, RunEnv: r.telemetry()}
	if r.quick {
		cfg.NLong = 60
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	fmt.Printf("short-flow sizes: %v\n", sizes)
	res := experiment.RunAFCTComparison(cfg)
	r.mergeMetrics(name, cfg.Metrics)
	return experiment.Render(os.Stdout, res)
}

func (r runner) table(red bool) error {
	cfg := experiment.UtilizationTableConfig{Seed: r.seed, UseRED: red, RunEnv: r.telemetry()}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{50, 100}
		cfg.Factors = []float64{0.5, 1, 2}
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	if red {
		fmt.Println("queue discipline: RED")
	}
	rows := experiment.RunUtilizationTable(cfg)
	id := "fig10"
	if red {
		id = "red"
	}
	r.mergeMetrics(id, cfg.Metrics)
	return experiment.Render(os.Stdout, rows)
}

func (r runner) production() error {
	cfg := experiment.ProductionConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.NLong = 30
		cfg.Buffers = []int{8, 46, 300}
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	rows := experiment.RunProduction(cfg)
	return experiment.Render(os.Stdout, rows)
}

func (r runner) pacing() error {
	cfg := experiment.PacingConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.N = 20
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.BufferFactors = []float64{0.25, 1}
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	points := experiment.RunPacingAblation(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) smoothing() error {
	cfg := experiment.SmoothingConfig{Seed: r.seed, TailAt: 20, RunEnv: r.env}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 8*units.Second, 30*units.Second
	}
	points := experiment.RunSmoothing(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) backbone() error {
	cfg := experiment.BackboneConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.BottleneckRate = 600 * units.Mbps
		cfg.N = 600
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	res := experiment.RunBackbone(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) multihop() error {
	cfg := experiment.MultiHopConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.NPerGroup = 40
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	res := experiment.RunMultiHop(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) variants() error {
	cfg := experiment.VariantConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.N = 60
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	points := experiment.RunVariantAblation(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) ecn() error {
	cfg := experiment.ECNConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.N = 100
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	res := experiment.RunECN(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) harpoon() error {
	cfg := experiment.HarpoonConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Sessions = 500
		cfg.Warmup, cfg.Measure = 15*units.Second, 25*units.Second
	}
	res := experiment.RunHarpoon(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) codel() error {
	cfg := experiment.CoDelConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.N = 100
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	rows := experiment.RunCoDel(cfg)
	return experiment.Render(os.Stdout, rows)
}

// ccFamilies is the updated-theory figure: the buffer each
// congestion-control family needs to reach (a fraction of) its own
// attainable utilization, as the flow count grows, against the 2004
// rule RTTxC/sqrt(n). Loss-based families track the rule; BBR's curve
// decouples from it.
func (r runner) ccFamilies() error {
	cfg := experiment.CCFamilyConfig{Seed: r.seed, RunEnv: r.telemetry()}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{25, 50, 100}
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	table := experiment.RunCCFamily(cfg)
	r.mergeMetrics("ccfamilies", cfg.Metrics)
	if err := experiment.Render(os.Stdout, table); err != nil {
		return err
	}

	byVariant := map[string]*trace.Series{}
	var order []string
	rule := &trace.Series{Name: "sqrt_rule"}
	seenN := map[int]bool{}
	for _, p := range table {
		name := p.Variant.String()
		s, ok := byVariant[name]
		if !ok {
			s = &trace.Series{Name: name}
			byVariant[name] = s
			order = append(order, name)
		}
		s.Times = append(s.Times, float64(p.N))
		s.Values = append(s.Values, float64(p.MinBuffer))
		if !seenN[p.N] {
			seenN[p.N] = true
			rule.Times = append(rule.Times, float64(p.N))
			rule.Values = append(rule.Values, float64(p.SqrtRule))
		}
	}
	series := make([]*trace.Series, 0, len(order)+1)
	for _, name := range order {
		series = append(series, byVariant[name])
	}
	series = append(series, rule)
	if err := r.writeCSV("ccfamilies_min_buffer", series...); err != nil {
		return err
	}

	chart := &plot.Chart{
		Title:  "Required buffer vs flows across congestion-control families",
		XLabel: "flows n", YLabel: "buffer (packets)",
		XLog: true, YLog: true,
	}
	for _, name := range order {
		s := byVariant[name]
		chart.Add("min buffer ("+name+")", plot.LinePoints, s.Times, s.Values)
	}
	chart.Add("RTTxC/sqrt(n)", plot.Line, rule.Times, rule.Values)
	return r.writeSVG("ccfamilies_min_buffer", chart)
}

// flashCrowd is the time-varying-workload figure: how each buffer size
// rides out a surge where the arrival rate and the long-lived population
// n(t) spike together — the regime the 2004 rule's fixed n never
// modeled. -workload swaps in another profile shape (a preset name or a
// profile .json); curves are rescaled to the experiment's peak load and
// population, so they act as shapes.
func (r runner) flashCrowd() error {
	cfg := experiment.FlashCrowdConfig{Seed: r.seed, RunEnv: r.telemetry()}
	if r.workload != "" {
		p, err := profile.FromArg(r.workload)
		if err != nil {
			return err
		}
		cfg.Profile = p
	}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Stations = 20
		cfg.PeakFlows = 8
		cfg.Buffers = []int{6, 25, 100, 250}
		cfg.Warmup = 2 * units.Second
		prof := cfg.Profile
		if len(prof.Arrival) == 0 && len(prof.Population) == 0 {
			prof = profile.FlashCrowd.Profile()
		}
		compressed, err := prof.Compress(4)
		if err != nil {
			return err
		}
		cfg.Profile = compressed
	}
	shape := cfg.Profile.Name
	if shape == "" {
		shape = profile.FlashCrowd.String()
	}
	fmt.Printf("workload profile: %s\n", shape)
	rows := experiment.RunFlashCrowd(cfg)
	r.mergeMetrics("flashcrowd", cfg.Metrics)
	if err := experiment.Render(os.Stdout, rows); err != nil {
		return err
	}

	util := &trace.Series{Name: "utilization"}
	loss := &trace.Series{Name: "loss_rate"}
	meanQ := &trace.Series{Name: "mean_queue"}
	peakN := &trace.Series{Name: "peak_active"}
	for _, row := range rows {
		x := float64(row.Buffer)
		util.Times = append(util.Times, x)
		util.Values = append(util.Values, row.Utilization)
		loss.Times = append(loss.Times, x)
		loss.Values = append(loss.Values, row.LossRate)
		meanQ.Times = append(meanQ.Times, x)
		meanQ.Values = append(meanQ.Values, row.MeanQueue)
		peakN.Times = append(peakN.Times, x)
		peakN.Values = append(peakN.Values, row.PeakActive)
	}
	if err := r.writeCSV("flashcrowd_buffer", util, loss, meanQ, peakN); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Flash crowd (%s): riding out the n(t) surge", shape),
		XLabel: "buffer (packets)", YLabel: "fraction",
		XLog: true,
	}
	chart.Add("utilization", plot.LinePoints, util.Times, util.Values)
	chart.Add("loss rate", plot.LinePoints, loss.Times, loss.Values)
	return r.writeSVG("flashcrowd_buffer", chart)
}

func (r runner) adversarial() error {
	cfg := experiment.AdversarialConfig{Seed: r.seed, RunEnv: r.telemetry()}
	if r.adversary != "" {
		p, err := adversary.ParsePattern(r.adversary)
		if err != nil {
			return err
		}
		cfg.Patterns = []adversary.Pattern{p}
		fmt.Printf("pattern %s: %s\n", p, p.Doc())
	}
	if r.quick {
		cfg.N = 8
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.BufferFactors = []float64{0.1, 0.5, 1.0}
		cfg.Hops = 2
		cfg.Warmup, cfg.Measure = 2*units.Second, 6*units.Second
	}
	table := experiment.RunAdversarial(cfg)
	r.mergeMetrics("adversarial", cfg.Metrics)
	if err := experiment.Render(os.Stdout, table); err != nil {
		return err
	}

	// One CSV per pattern: the failure-mode curves over the buffer ladder.
	byPattern := map[string][]experiment.AdversarialRow{}
	var order []string
	for _, row := range table {
		name := row.Pattern.String()
		if _, ok := byPattern[name]; !ok {
			order = append(order, name)
		}
		byPattern[name] = append(byPattern[name], row)
	}
	for _, name := range order {
		util := &trace.Series{Name: "utilization"}
		loss := &trace.Series{Name: "loss_rate"}
		for _, row := range byPattern[name] {
			util.Times = append(util.Times, row.BufferFactor)
			util.Values = append(util.Values, row.Utilization)
			loss.Times = append(loss.Times, row.BufferFactor)
			loss.Values = append(loss.Values, row.LossRate)
		}
		if err := r.writeCSV("adversarial_"+name, util, loss); err != nil {
			return err
		}
	}
	return nil
}

func (r runner) probeLadder() error {
	cfg := experiment.ProbeLadderConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.Limits = []int{16, 64, 256}
	}
	table := experiment.RunProbeLadder(cfg)
	return experiment.Render(os.Stdout, table)
}

func (r runner) rttSpread() error {
	cfg := experiment.RTTSpreadConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.N = 100
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 25*units.Second
	}
	points := experiment.RunRTTSpread(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) sync() error {
	cfg := experiment.SyncConfig{Seed: r.seed, RunEnv: r.env}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{5, 30, 120}
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	points := experiment.RunSyncAblation(cfg)
	return experiment.Render(os.Stdout, points)
}
