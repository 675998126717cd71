// Command paperexp regenerates the figures and tables of "Sizing Router
// Buffers" (SIGCOMM 2004) and the extensions beyond the paper's own
// artifacts. The experiment ids are the rows of experiment.Catalog — id,
// what it shows, the paper's parameters, the -quick parameters and the
// driver — and
//
//	paperexp -help
//
// lists them. -exp all runs every one. What is left here is what a row
// cannot say: the figures some ids draw, the line a few print before
// their table, and the -workload/-adversary overrides.
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
		for _, e := range experiment.Catalog {
			fmt.Fprintf(out, "  %-12s %s\n", e.ID, e.Doc)
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
		ids = nil
		for _, e := range experiment.Catalog {
			ids = append(ids, e.ID)
		}
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
	// signal context add up to. Its Metrics stays nil — see telemetry.
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

// telemetry is the env every experiment runs under: with -metrics it
// carries a fresh registry for run to fold into the master dump under
// the experiment id, else it is env itself (telemetry disabled).
func (r runner) telemetry() experiment.RunEnv {
	env := r.env
	if r.metrics != nil {
		env.Metrics = metrics.New()
	}
	return env
}

// run runs one catalog row the way every row runs: what its config type
// calls for before the run (prepare), the row under the telemetry env,
// its registry merged under the id, its table, and the figure if the id
// draws one.
func (r runner) run(id string) error {
	e, err := experiment.Lookup(id)
	if err != nil {
		return err
	}
	cfg := &e.Paper
	if r.quick {
		cfg = &e.Quick
	}
	if err := r.prepare(cfg); err != nil {
		return err
	}
	env := r.telemetry()
	res := e.Run(r.quick, r.seed, env)
	r.metrics.Merge(e.ID, env.Metrics)

	if sf, ok := res.(experiment.SingleFlowResult); ok {
		// The sawtooth is its own report: plots, not a table.
		return r.singleFlow(e.ID, (*cfg).(experiment.SingleFlowConfig).BufferFactor, sf)
	}
	if err := experiment.Render(os.Stdout, res); err != nil {
		return err
	}
	switch res := res.(type) {
	case experiment.WindowDistResult:
		return r.windowDist(res)
	case experiment.MinBufferResult:
		return r.minBuffer(res)
	case experiment.ShortFlowBufferTable:
		return r.shortFlows(res)
	case experiment.CCFamilyTable:
		return r.ccFamilies(res)
	case experiment.FlashCrowdTable:
		return r.flashCrowd(shapeName((*cfg).(experiment.FlashCrowdConfig)), res)
	case experiment.AdversarialTable:
		return r.adversarial(res)
	}
	return nil
}

// prepare applies the flags that edit a row's config (-workload,
// -adversary) and prints the line some experiments put above their
// table. It goes by config type, so rows that share one share this too.
func (r runner) prepare(cfg *any) error {
	switch c := (*cfg).(type) {
	case experiment.AFCTComparisonConfig:
		fmt.Printf("short-flow sizes: %v\n", c.Sizes)
	case experiment.UtilizationTableConfig:
		if c.UseRED {
			fmt.Println("queue discipline: RED")
		}
	case experiment.FlashCrowdConfig:
		// -workload swaps in another profile shape (a preset name or a
		// profile .json); curves are rescaled to the experiment's peak
		// load and population, so they act as shapes.
		if r.workload != "" {
			p, err := profile.FromArg(r.workload)
			if err != nil {
				return err
			}
			c.Profile = p
			*cfg = c
		}
		fmt.Printf("workload profile: %s\n", shapeName(c))
	case experiment.AdversarialConfig:
		if r.adversary != "" {
			p, err := adversary.ParsePattern(r.adversary)
			if err != nil {
				return err
			}
			c.Patterns = []adversary.Pattern{p}
			*cfg = c
			fmt.Printf("pattern %s: %s\n", p, p.Doc())
		}
	}
	return nil
}

// shapeName is the workload profile a flash-crowd config runs: its own,
// or the preset an unset one defaults to.
func shapeName(cfg experiment.FlashCrowdConfig) string {
	if cfg.Profile.Name != "" {
		return cfg.Profile.Name
	}
	return profile.FlashCrowd.String()
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

// grouped splits rows into one series per key, in first-seen key order,
// each row contributing the point xy gives it: how a table in grid order
// becomes the curves of a figure.
func grouped[R any](rows []R, key func(R) string, xy func(R) (x, y float64)) []*trace.Series {
	var out []*trace.Series
	byKey := map[string]*trace.Series{}
	for _, row := range rows {
		s, ok := byKey[key(row)]
		if !ok {
			s = &trace.Series{Name: key(row)}
			byKey[s.Name] = s
			out = append(out, s)
		}
		x, y := xy(row)
		s.Times = append(s.Times, x)
		s.Values = append(s.Values, y)
	}
	return out
}

// addAll plots each series under its own name.
func addAll(c *plot.Chart, style plot.Style, series []*trace.Series) {
	for _, s := range series {
		c.Add(s.Name, style, s.Times, s.Values)
	}
}

// singleFlow reports Figs. 2-5: the cwnd and queue sawtooths of the
// first minute of the window.
func (r runner) singleFlow(id string, factor float64, res experiment.SingleFlowResult) error {
	name := id + "_rule_of_thumb"
	switch {
	case factor < 1:
		name = id + "_underbuffered"
	case factor > 1:
		name = id + "_overbuffered"
	}
	fmt.Printf("BDP %d pkts, buffer %d pkts (%.3gx)\n", res.BDPPackets, res.BufferPackets, factor)
	fmt.Printf("utilization %.2f%%, mean queue %.1f pkts, min queue seen %.0f pkts\n",
		100*res.Utilization, res.MeanQueue, res.MinQueueSeen)
	cwnd := res.Cwnd.Window(res.Cwnd.Times[0], res.Cwnd.Times[0]+60)
	queue := res.Queue.Window(res.Queue.Times[0], res.Queue.Times[0]+60)
	fmt.Println(trace.ASCIIPlot(cwnd, 72, 10))
	fmt.Println(trace.ASCIIPlot(queue, 72, 8))
	if err := r.writeCSV(name, res.Cwnd, res.Queue); err != nil {
		return err
	}
	cwnd, queue = cwnd.Downsample(1200), queue.Downsample(1200)
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Single flow, B = %.3gx RTTxC (util %.1f%%)", factor, 100*res.Utilization),
		XLabel: "time (s)", YLabel: "packets",
	}
	chart.Add("cwnd W(t)", plot.Line, cwnd.Times, cwnd.Values)
	chart.Add("queue Q(t)", plot.Line, queue.Times, queue.Values)
	return r.writeSVG(name, chart)
}

func (r runner) windowDist(res experiment.WindowDistResult) error {
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

func (r runner) minBuffer(res experiment.MinBufferResult) error {
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
	byTarget := func(p experiment.MinBufferPoint) string {
		return fmt.Sprintf("min buffer @ %.1f%%", 100*p.Target)
	}
	addAll(chart, plot.LinePoints, grouped(res.Points, byTarget,
		func(p experiment.MinBufferPoint) (float64, float64) { return float64(p.N), float64(p.MinBuffer) }))
	// Every target spans the same flow counts, so the first one's rows
	// carry the whole rule line.
	rule := grouped(res.Points, byTarget,
		func(p experiment.MinBufferPoint) (float64, float64) { return float64(p.N), float64(p.SqrtRule) })[0]
	chart.Add("RTTxC/sqrt(n)", plot.Line, rule.Times, rule.Values)
	return r.writeSVG("fig7_min_buffer", chart)
}

func (r runner) shortFlows(points experiment.ShortFlowBufferTable) error {
	chart := &plot.Chart{
		Title:  "Short flows: min buffer for AFCT within 12.5% of infinite",
		XLabel: "flow length (segments)", YLabel: "buffer (packets)",
	}
	byRate := func(p experiment.ShortFlowBufferPoint) string { return p.Rate.String() }
	addAll(chart, plot.LinePoints, grouped(points, byRate,
		func(p experiment.ShortFlowBufferPoint) (float64, float64) {
			return float64(p.FlowLen), float64(p.MinBuffer)
		}))
	// The model depends on the flow length alone: the first rate's rows
	// carry the whole curve.
	model := grouped(points, byRate,
		func(p experiment.ShortFlowBufferPoint) (float64, float64) { return float64(p.FlowLen), p.ModelBuffer })[0]
	chart.Add("M/G/1 model (P=0.025)", plot.Line, model.Times, model.Values)
	return r.writeSVG("fig8_short_flow_buffer", chart)
}

// ccFamilies draws the updated-theory figure: the buffer each
// congestion-control family needs to reach (a fraction of) its own
// attainable utilization, as the flow count grows, against the 2004
// rule RTTxC/sqrt(n). Loss-based families track the rule; BBR's curve
// decouples from it.
func (r runner) ccFamilies(table experiment.CCFamilyTable) error {
	byVariant := func(p experiment.CCFamilyPoint) string { return p.Variant.String() }
	series := grouped(table, byVariant,
		func(p experiment.CCFamilyPoint) (float64, float64) { return float64(p.N), float64(p.MinBuffer) })
	rule := grouped(table, byVariant,
		func(p experiment.CCFamilyPoint) (float64, float64) { return float64(p.N), float64(p.SqrtRule) })[0]
	rule.Name = "sqrt_rule"
	if err := r.writeCSV("ccfamilies_min_buffer", append(series[:len(series):len(series)], rule)...); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  "Required buffer vs flows across congestion-control families",
		XLabel: "flows n", YLabel: "buffer (packets)",
		XLog: true, YLog: true,
	}
	for _, s := range series {
		chart.Add("min buffer ("+s.Name+")", plot.LinePoints, s.Times, s.Values)
	}
	chart.Add("RTTxC/sqrt(n)", plot.Line, rule.Times, rule.Values)
	return r.writeSVG("ccfamilies_min_buffer", chart)
}

// flashCrowd draws the time-varying-workload figure: how each buffer
// size rides out a surge where the arrival rate and the long-lived
// population n(t) spike together — the regime the 2004 rule's fixed n
// never modeled.
func (r runner) flashCrowd(shape string, rows experiment.FlashCrowdTable) error {
	column := func(name string, y func(experiment.FlashCrowdRow) float64) *trace.Series {
		s := &trace.Series{Name: name}
		for _, row := range rows {
			s.Times = append(s.Times, float64(row.Buffer))
			s.Values = append(s.Values, y(row))
		}
		return s
	}
	util := column("utilization", func(row experiment.FlashCrowdRow) float64 { return row.Utilization })
	loss := column("loss_rate", func(row experiment.FlashCrowdRow) float64 { return row.LossRate })
	meanQ := column("mean_queue", func(row experiment.FlashCrowdRow) float64 { return row.MeanQueue })
	peakN := column("peak_active", func(row experiment.FlashCrowdRow) float64 { return row.PeakActive })
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

// adversarial writes one CSV per pattern: the failure-mode curves over
// the buffer ladder.
func (r runner) adversarial(table experiment.AdversarialTable) error {
	byPattern := func(row experiment.AdversarialRow) string { return row.Pattern.String() }
	utils := grouped(table, byPattern,
		func(row experiment.AdversarialRow) (float64, float64) { return row.BufferFactor, row.Utilization })
	losses := grouped(table, byPattern,
		func(row experiment.AdversarialRow) (float64, float64) { return row.BufferFactor, row.LossRate })
	for i, util := range utils {
		pattern := util.Name
		util.Name, losses[i].Name = "utilization", "loss_rate"
		if err := r.writeCSV("adversarial_"+pattern, util, losses[i]); err != nil {
			return err
		}
	}
	return nil
}
