// Package experiment reproduces the paper's evaluation: every figure and
// table in §5 has a driver here that returns the same rows or series the
// paper reports. A driver does not assemble its own simulation: it
// describes a test bed (bed.go — the one place a scheduler and a
// topology are built, warmed up, measured over a window and drained),
// starts its traffic on it and reads the window; a driver with more than
// one simulation fans them out through the one sweep (sweep.go).
//
// The experiments themselves are said once as well: Catalog (catalog.go)
// is one row per experiment id — what it shows, the driver's config at
// the paper's scale and at the -quick scale, and the driver — and
// Entry.Run is how cmd/paperexp and the root package's BenchmarkPaper
// run any of them.
//
// The apparatus is described once too: every config embeds one Scenario
// (scenario.go — the seed, the queue discipline, the sender and the
// Path, path.go: line rate, bottleneck delay, station RTT range, segment
// size, warm-up and window), each experiment's published parameters are
// one Path literal beside its config, and a sweep hands its cells
// Scenario: cfg.Scenario. Tests set the fields they scale down and the
// literal fills the rest; testdata/golden/paper_parameters.txt pins every
// resolved default.
//
// Observers and execution policy: every config embeds one RunEnv
// (runenv.go) — telemetry registry, auditor, run cache,
// context, worker bound. None of it can change a result,
// and the type itself keeps it out of the cache key; see RunEnv and
// DESIGN.md, "Run cache".
package experiment

import (
	"fmt"
	"math"

	"bufsim/internal/packet"
	"bufsim/internal/stats"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// LongLivedConfig describes one long-lived-flow utilization run: n
// persistent TCP flows over a dumbbell with a given bottleneck buffer.
type LongLivedConfig struct {
	// Scenario: BottleneckRate is the caller's; the rest of the path
	// defaults to longLivedPath.
	Scenario

	N             int
	MaxWindow     int // 0: effectively unbounded
	BufferPackets int

	// RunEnv carries the observers and execution policy. RunLongLived
	// reads Metrics, Audit and Cache; RunLongLivedReplicated
	// also Ctx and Parallelism.
	RunEnv
}

// longLivedPath is the paper's §5.1 long-lived scenario short of its
// line rate, which every user of it sets: the ablations that lower onto
// RunLongLived default to it at their own rate.
var longLivedPath = Path{
	BottleneckDelay: 5 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          100 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         40 * units.Second,
}

func (c LongLivedConfig) withDefaults() LongLivedConfig {
	c.Path = c.Path.or(longLivedPath)
	return c
}

// LongLivedResult is the outcome of one long-lived run.
type LongLivedResult struct {
	N             int
	BufferPackets int
	// Utilization is the bottleneck busy fraction over the measurement
	// window — the paper's primary metric.
	Utilization float64
	// LossRate is the bottleneck drop fraction over the window.
	LossRate float64
	// MeanQueue is the time-averaged bottleneck occupancy in packets
	// over the window, under any queue discipline.
	MeanQueue float64
	// RetransmitFraction is retransmitted segments / segments sent over
	// the window, across all senders: the efficiency cost of small
	// buffers the §5.1.1 loss-rate discussion predicts.
	RetransmitFraction float64
	// Timeouts across all senders during the whole run.
	Timeouts int64
	// QueueDelayMean and QueueDelayP99 are the per-packet bottleneck
	// queueing delays over the window — the latency cost of buffering,
	// the paper's second argument against overbuffering (§1.1).
	QueueDelayMean units.Duration
	QueueDelayP99  units.Duration
	// Fairness is Jain's index over per-flow segments sent in the
	// window (1 = perfectly even shares).
	Fairness float64
}

// RunLongLived executes one long-lived-flow scenario. With cfg.Cache
// set, a previously computed result for the same semantic config is
// replayed from the cache instead of re-simulated.
func RunLongLived(cfg LongLivedConfig) LongLivedResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "long-lived", cfg, func() LongLivedResult {
		return runLongLived(cfg)
	})
}

// runLongLived is the uncached body of RunLongLived; cfg has defaults
// applied.
func runLongLived(cfg LongLivedConfig) LongLivedResult {
	b := newBed(bedConfig{env: cfg.RunEnv, Scenario: cfg.Scenario, stations: cfg.N, buffer: cfg.BufferPackets})
	d := b.d
	// Stagger starts across half the warmup so slow-start bursts do not
	// synchronize artificially.
	workload.StartLongLived(d, cfg.N, cfg.tcp(cfg.MaxWindow), b.rng.Fork(), cfg.Warmup/2)

	// Per-packet queueing delays over the window. The reservoir is
	// bounded to keep long runs flat in memory; beyond it we keep a
	// running mean only (P99 over the first million delays is plenty).
	// It is sized once: the bottleneck cannot start more packets in the
	// window than it can serialize, plus the one in progress at its end.
	const reservoir = 1 << 20
	delays := make([]float64, 0, min(reservoir,
		units.PacketsInFlight(cfg.BottleneckRate, cfg.Measure, cfg.SegmentSize)+1))
	var delaySum units.Duration
	var delayN int64
	type sendSnap struct{ sent, rtx int64 }
	senderSnaps := make([]sendSnap, len(d.Flows()))
	// A packet counts in the window (from, to] by its start of
	// transmission, which a drop-tail or RED bottleneck knows, and
	// reports, when it admits the packet.
	from := units.Epoch.Add(cfg.Warmup)
	to := from.Add(cfg.Measure)
	d.Bottleneck.OnDequeue = func(p *packet.Packet, queued units.Duration) {
		if start := p.Enqueued.Add(queued); start <= from || start > to {
			return
		}
		delaySum += queued
		delayN++
		if len(delays) < reservoir {
			delays = append(delays, float64(queued))
		}
	}
	w := b.measure(func() {
		for i, f := range d.Flows() {
			st := f.Sender.Stats()
			senderSnaps[i] = sendSnap{st.SegmentsSent, st.Retransmits}
		}
	})

	res := LongLivedResult{
		N:             cfg.N,
		BufferPackets: cfg.BufferPackets,
		Utilization:   w.Utilization,
		LossRate:      w.LossRate,
		MeanQueue:     w.MeanQueue,
	}
	var sent, rtx int64
	perFlow := make([]float64, len(d.Flows()))
	for i, f := range d.Flows() {
		st := f.Sender.Stats()
		res.Timeouts += st.Timeouts
		flowSent := st.SegmentsSent - senderSnaps[i].sent
		perFlow[i] = float64(flowSent)
		sent += flowSent
		rtx += st.Retransmits - senderSnaps[i].rtx
	}
	if sent > 0 {
		res.RetransmitFraction = float64(rtx) / float64(sent)
	}
	res.Fairness = stats.JainIndex(perFlow)
	if delayN > 0 {
		res.QueueDelayMean = delaySum / units.Duration(delayN)
		res.QueueDelayP99 = units.Duration(stats.Percentile(delays, 99))
	}
	return res
}

// SqrtRuleBuffer returns the paper's buffer recommendation for a config:
// MeanRTT x C / sqrt(n), in packets, never below 1.
func SqrtRuleBuffer(bdpPackets float64, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("experiment: n=%d", n))
	}
	b := int(math.Round(bdpPackets / math.Sqrt(float64(n))))
	if b < 1 {
		b = 1
	}
	return b
}

// MeasuredUtilization is a convenience wrapper used by search loops.
func MeasuredUtilization(cfg LongLivedConfig, bufferPkts int) float64 {
	cfg.BufferPackets = bufferPkts
	return RunLongLived(cfg).Utilization
}

// utilAt is MeasuredUtilization(c, bufferPkts) as the body of an arm
// (see arm): the run goes under the arm's env.
func (c LongLivedConfig) utilAt(bufferPkts int) func(RunEnv) float64 {
	return func(env RunEnv) float64 { c.RunEnv = env; return MeasuredUtilization(c, bufferPkts) }
}

// ReplicatedResult aggregates one scenario across independent seeds.
type ReplicatedResult struct {
	Replicas        int
	MeanUtilization float64
	StdDev          float64
	Min, Max        float64
}

// RunLongLivedReplicated runs the scenario under k different seeds
// (cfg.Seed, cfg.Seed+1, ...) and reports utilization statistics — the
// error bars the single-run drivers omit. Replicas run through the
// sweep orchestrator: in parallel and cached per seed.
func RunLongLivedReplicated(cfg LongLivedConfig, k int) ReplicatedResult {
	if k <= 0 {
		panic(fmt.Sprintf("experiment: replicas = %d", k))
	}
	label := func(i int) string { return fmt.Sprintf("seed=%d", cfg.Seed+int64(i)) }
	utils := sweep("replicated", cfg.RunEnv, label, k, func(i int, cell RunEnv) float64 {
		run := cfg
		run.Seed = cfg.Seed + int64(i)
		run.RunEnv = cell
		return RunLongLived(run).Utilization
	})
	var w stats.Welford
	for _, u := range utils {
		w.Add(u)
	}
	return ReplicatedResult{
		Replicas:        k,
		MeanUtilization: w.Mean(),
		StdDev:          w.StdDev(),
		Min:             w.Min(),
		Max:             w.Max(),
	}
}

// MinBufferForUtilization finds the smallest buffer (packets) achieving
// target utilization for the given long-lived scenario, by bisection on
// [1, hi]. Utilization is noisy, so the search treats the response as
// monotone and uses a single run per probe; callers choose Measure long
// enough for the noise floor they care about.
func MinBufferForUtilization(cfg LongLivedConfig, target float64, hi int) int {
	// Each probe publishes under a registry of its own, buffer=<b>/.
	return minBufferBelow(target, hi, func(b int) float64 {
		return arm(cfg.RunEnv, fmt.Sprintf("buffer=%d", b), cfg.utilAt(b))
	})
}

// minBufferBelow is the bisection behind MinBufferForUtilization, over a
// caller's util(b), the utilization measured with a b-packet buffer.
func minBufferBelow(target float64, hi int, util func(b int) float64) int {
	if hi < 2 {
		panic("experiment: search upper bound too small")
	}
	lo := 1
	if util(lo) >= target {
		return lo
	}
	if util(hi) < target {
		return hi // not achievable within bound; report the bound
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if util(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// normalPDF is the standard normal density.
func normalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// fitNormal returns the sample mean and standard deviation.
func fitNormal(sample []float64) (mean, sd float64) {
	var w stats.Welford
	for _, v := range sample {
		w.Add(v)
	}
	return w.Mean(), w.StdDev()
}
