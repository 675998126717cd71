// Command bufsim runs one buffer-sizing scenario from the command line and
// prints the sizing rules next to the simulated outcome.
//
// Example — the paper's abstract, scaled to simulate quickly:
//
//	bufsim -rate 155Mbps -rtt 100ms -flows 400 -buffer-factor 1.0
//
// prints the rule-of-thumb and sqrt(n) buffer sizes, the Gaussian model's
// utilization prediction, and the measured utilization of a packet-level
// simulation with that buffer.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"bufsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bufsim: ")

	var sf scenarioFile
	flag.StringVar(&sf.Rate, "rate", "155Mbps", "bottleneck capacity C (e.g. 10Gbps)")
	flag.StringVar(&sf.RTT, "rtt", "100ms", "mean two-way propagation delay")
	flag.StringVar(&sf.RTTSpread, "rtt-spread", "80ms", "RTT heterogeneity across flows")
	flag.IntVar(&sf.Flows, "flows", 400, "number of long-lived TCP flows")
	flag.Float64Var(&sf.BufferFactor, "buffer-factor", 1.0, "buffer as a multiple of RTTxC/sqrt(n)")
	flag.IntVar(&sf.Buffer, "buffer", 0, "explicit buffer in packets (overrides -buffer-factor)")
	flag.IntVar(&sf.Segment, "segment", int(bufsim.DefaultSegment), "segment size in bytes")
	flag.Int64Var(&sf.Seed, "seed", 1, "simulation seed")
	flag.StringVar(&sf.Warmup, "warmup", "20s", "simulated warmup to discard")
	flag.StringVar(&sf.Measure, "measure", "40s", "simulated measurement window")
	flag.BoolVar(&sf.RED, "red", false, "use RED instead of drop-tail")
	flag.StringVar(&sf.Variant, "variant", "reno", "TCP flavour: "+strings.Join(bufsim.VariantNames(), ", "))
	flag.BoolVar(&sf.Paced, "paced", false, "pace sender transmissions across the RTT")
	var (
		skipSim   = flag.Bool("no-sim", false, "print the sizing rules only")
		config    = flag.String("config", "", "JSON scenario file (overrides the other flags)")
		metrics   = flag.String("metrics", "", "write run telemetry to this JSON file")
		cpuprof   = flag.String("pprof", "", "write a CPU profile to this file")
		auditOn   = flag.Bool("audit", false, "run under the conservation-law checker; violations are reported and exit nonzero")
		cacheOn   = flag.Bool("cache", false, "memoize the result in a content-addressed store; a re-run with identical parameters replays from disk")
		cacheDir  = flag.String("cachedir", filepath.Join("results", "cache"), "directory for the -cache store")
		verify    = flag.Bool("cache-verify", false, "recompute a sample of cache hits and fail on digest mismatch (implies -cache)")
		wlArg     = flag.String("workload", "", "time-varying workload profile: a preset name ("+strings.Join(bufsim.ProfileNames(), ", ")+") or a profile .json file; runs the profile scenario instead of the long-lived one, with -flows as the peak population")
		wlLoad    = flag.Float64("workload-load", 0.85, "short-flow offered load at the profile's arrival peak")
		wlFlowLen = flag.Int64("workload-flow-length", 14, "short-flow size in segments for -workload")
		shards    = flag.Int("shards", 0, "ignored: the simulator has one sequential kernel; the flag still parses so old command lines run")
		advArg    = flag.String("adversary", "", "adversarial pattern ("+strings.Join(bufsim.AdversaryNames(), ", ")+"); runs worst-case traffic instead of the long-lived scenario, with -flows as the cohort size")
	)
	flag.Parse()

	if *shards > 1 {
		log.Printf("-shards %d ignored: the simulator has one sequential kernel", *shards)
	}
	if *verify {
		*cacheOn = true
	}
	obs := observers{metricsPath: *metrics}
	if *metrics != "" {
		obs.reg = bufsim.NewRegistry()
	}
	if *auditOn {
		obs.aud = bufsim.NewAuditor()
	}
	if *cacheOn {
		c, err := bufsim.OpenCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		if *verify {
			c.SetVerifySample(0.25)
		}
		obs.cache = c
	}

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

	s, long, err := sf.scenario()
	err = flagError(err)
	if *config != "" {
		s, long, err = loadScenario(*config)
	}
	fatalIf(err)
	wl := profileArgs{*wlArg, *wlLoad, *wlFlowLen}
	fatalIf(wl.check())
	printRules(s.Link, long.Flows, s.BufferPackets)
	switch {
	case *advArg != "" && *wlArg != "":
		log.Fatal("-adversary and -workload are mutually exclusive")
	case *advArg != "":
		fatalIf(runAdversaryAndPrint(*advArg, s, long.Flows, *skipSim, obs))
	case *wlArg != "":
		fatalIf(runProfileAndPrint(wl, s, long.Flows, *skipSim, obs))
	case !*skipSim:
		fatalIf(runAndPrint(s, long, obs))
	}
}

func fatalIf(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// observers is what -metrics, -audit and -cache (with -cache-verify) add
// up to: the options every scenario runs under, and the
// epilogue every scenario prints after its own lines.
type observers struct {
	metricsPath string
	reg         *bufsim.Registry // nil without -metrics
	aud         *bufsim.Auditor  // nil without -audit
	cache       *bufsim.Cache    // nil without -cache
}

func (o observers) options() []bufsim.Option {
	var opts []bufsim.Option
	if o.reg != nil {
		opts = append(opts, bufsim.WithMetrics(o.reg))
	}
	if o.aud != nil {
		opts = append(opts, bufsim.WithAudit(o.aud))
	}
	if o.cache != nil {
		opts = append(opts, bufsim.WithCacheStore(o.cache))
	}
	return opts
}

// report writes the telemetry dump and prints the audit and cache
// verdicts. An invariant violation or a cache entry that recomputed
// differently is an error: the numbers above it cannot be trusted.
func (o observers) report() error {
	if o.reg != nil {
		if err := writeTelemetry(o.reg, o.metricsPath); err != nil {
			return err
		}
	}
	if o.aud != nil {
		if err := o.aud.Err(); err != nil {
			return fmt.Errorf("audit: %v", err)
		}
		fmt.Println("audit:           all invariants held")
	}
	if o.cache != nil {
		if o.cache.Stats().Hits > 0 {
			fmt.Println("cache:           hit — result replayed from a previous identical run")
		} else {
			fmt.Println("cache:           miss — result stored for next time")
		}
		if fails := o.cache.VerifyFailures(); len(fails) > 0 {
			return fmt.Errorf("cache-verify: recomputation mismatched the stored result (%d failure(s))", len(fails))
		}
	}
	return nil
}

// printRules shows the sizing rules and hardware verdict for the chosen
// buffer.
func printRules(link bufsim.Link, flows, buffer int) {
	seg := int(link.SegmentSize)
	if seg == 0 {
		seg = int(bufsim.DefaultSegment)
	}
	rot := link.RuleOfThumb()
	sqrt := link.SqrtRule(flows)
	fmt.Printf("link:            %v, RTT %v, %dB segments\n", link.Rate, link.RTT, seg)
	fmt.Printf("rule of thumb:   %d packets (%.1f Mbit)\n", rot, mbit(rot, seg))
	fmt.Printf("RTTxC/sqrt(%d): %d packets (%.1f Mbit) — %.1f%% smaller\n",
		flows, sqrt, mbit(sqrt, seg), 100*(1-float64(sqrt)/float64(rot)))
	fmt.Printf("chosen buffer:   %d packets (%.1f Mbit)\n", buffer, mbit(buffer, seg))
	fmt.Printf("hardware:        %s\n", link.MemoryFeasibility(buffer).Description)
	fmt.Printf("model predicts:  %.2f%% utilization\n", 100*link.PredictUtilization(flows, buffer))
}

// runAndPrint runs the long-lived simulation under obs and reports.
func runAndPrint(s bufsim.Scenario, t bufsim.LongLived, obs observers) error {
	fmt.Printf("simulating %d %v flows for %v (+%v warmup)...\n",
		t.Flows, s.Sender.Variant, s.Measure, s.Warmup)
	res, err := bufsim.Run(s, t, obs.options()...)
	if err != nil {
		return err
	}
	fmt.Printf("measured:        %.2f%% utilization, %.3f%% loss, mean queue %.0f pkts, %.2f%% retransmits\n",
		100*res.Utilization, 100*res.LossRate, res.MeanQueue, 100*res.RetransmitFraction)
	fmt.Printf("queueing delay:  mean %v, P99 %v; fairness %.3f\n",
		res.QueueDelayMean, res.QueueDelayP99, res.Fairness)
	if err := obs.report(); err != nil {
		return err
	}
	if res.Utilization < 0.98 {
		fmt.Println("note: below 98% utilization — try a larger -buffer-factor or more flows")
	}
	return nil
}

// runAdversaryAndPrint runs the -adversary scenario: one worst-case
// traffic pattern of a flows-strong cohort against the chosen buffer,
// reporting the failure-mode measurements instead of the long-lived
// scenario's.
func runAdversaryAndPrint(arg string, s bufsim.Scenario, flows int, skip bool, obs observers) error {
	p, err := bufsim.ParseAdversary(arg)
	if err != nil {
		return fmt.Errorf("-adversary: %v", err)
	}
	fmt.Printf("adversary:       %s — %s\n", p, p.Doc())
	if skip {
		return nil
	}
	fmt.Printf("simulating %d-strong %s cohort for %v (+%v warmup)...\n",
		flows, p, s.Measure, s.Warmup)
	res, err := bufsim.Run(s, bufsim.Adversary{Pattern: p, Flows: flows}, obs.options()...)
	if err != nil {
		return err
	}
	fmt.Printf("measured:        %.2f%% utilization, %.3f%% loss, mean queue %.0f pkts, peak %d pkts\n",
		100*res.Utilization, 100*res.LossRate, res.MeanQueue, res.PeakQueue)
	if res.SyncIndex != 0 {
		fmt.Printf("sync index:      %.2f (1.0 = the desynchronized CLT prediction)\n", res.SyncIndex)
	}
	if err := obs.report(); err != nil {
		return err
	}
	if res.Utilization < 0.98 {
		fmt.Println("note: below 98% utilization — the pattern defeated this buffer")
	}
	return nil
}

// writeTelemetry dumps a run's registry to path as JSON.
func writeTelemetry(reg *bufsim.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("telemetry:       written to %s\n", path)
	return nil
}

// profileArgs carries the -workload flags: a profile shape (a preset
// name or .json path) scaled so its arrival peak offers load with
// flowLen-segment flows.
type profileArgs struct {
	arg     string
	load    float64
	flowLen int64
}

// check rejects -workload flag values that describe no traffic, before
// the sizing rules print.
func (wl profileArgs) check() error {
	switch {
	case !(wl.load > 0) || math.IsInf(wl.load, 1):
		return fmt.Errorf("-workload-load: must be positive and finite (got %v)", wl.load)
	case wl.flowLen <= 0:
		return fmt.Errorf("-workload-flow-length: must be positive (got %d)", wl.flowLen)
	}
	return nil
}

// resolveProfile loads a .json profile or looks up a preset by name.
func resolveProfile(arg string) (bufsim.Profile, error) {
	if strings.HasSuffix(arg, ".json") {
		f, err := os.Open(arg)
		if err != nil {
			return bufsim.Profile{}, err
		}
		defer f.Close()
		p, err := bufsim.LoadProfile(f)
		if err != nil {
			return bufsim.Profile{}, fmt.Errorf("%s: %v", arg, err)
		}
		return p, nil
	}
	preset, err := bufsim.ParseProfile(arg)
	if err != nil {
		return bufsim.Profile{}, err
	}
	return preset.Profile(), nil
}

// runProfileAndPrint runs the -workload scenario, with a population
// peak of peakFlows long-lived flows, and reports the surge's outcome.
func runProfileAndPrint(wl profileArgs, s bufsim.Scenario, peakFlows int, skip bool, obs observers) error {
	prof, err := resolveProfile(wl.arg)
	if err != nil {
		return fmt.Errorf("-workload: %v", err)
	}
	sizes := bufsim.FixedSize(wl.flowLen)
	scaled := prof.ScaleTo(bufsim.ArrivalRate(wl.load, s.Link, sizes), float64(peakFlows))
	w, err := bufsim.ProfileWorkload(scaled, sizes, 0)
	if err != nil {
		return fmt.Errorf("-workload: %v", err)
	}
	if skip {
		return nil
	}
	fmt.Printf("simulating %q workload (peak load %.0f%%, peak %d long flows) for %v (+%v warmup)...\n",
		prof.Name, 100*wl.load, peakFlows, s.Measure, s.Warmup)
	res, err := bufsim.Run(s, bufsim.Generated{Workload: w}, obs.options()...)
	if err != nil {
		return err
	}
	fmt.Printf("measured:        %.2f%% utilization, %.3f%% loss, mean queue %.1f pkts (peak %d)\n",
		100*res.Utilization, 100*res.LossRate, res.MeanQueue, res.PeakQueue)
	fmt.Printf("flows:           peak n(t) %.0f (mean %.1f), %d launched; AFCT %v over %d completed (%d censored)\n",
		res.PeakActive, res.MeanActive, res.Generated, res.AFCT, res.Completed, res.Censored)
	return obs.report()
}

func mbit(packets, segBytes int) float64 {
	return float64(packets) * float64(segBytes) * 8 / 1e6
}
