package experiment

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"bufsim/internal/adversary"
	"bufsim/internal/probe"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/trace"
	"bufsim/internal/units"
)

// AdversarialConfig drives the failure-mode sweep: every adversarial
// pattern (see internal/adversary) against a ladder of buffer sizes,
// measuring how the sqrt(n) regime degrades when the rule's statistical
// assumptions are attacked directly. Where the paper's experiments ask
// "how small can the buffer be under realistic traffic", this sweep
// asks "what does the worst admissible traffic do at each size" — the
// adversarial-queueing counterpart.
//
// Each pattern runs over a deliberately hostile scenario: a single
// fixed RTT (no per-station draw to desynchronize the cohort), jitter-
// free bursts, simultaneous starts. SyncIndex is reported for the AIMD
// cohort (measured aggregate-window CoV over the desynchronized CLT
// prediction, as in RunSyncAblation); it reads near sqrt(n) when the
// attack works.
type AdversarialConfig struct {
	Seed int64

	// Patterns defaults to every registered adversarial pattern.
	Patterns []adversary.Pattern
	// N is the pattern's cohort size: pulse trains, AIMD flows, or
	// flows per core link in the parking lot.
	N int

	BottleneckRate units.BitRate
	// RTT is every flow's two-way propagation delay; a single value on
	// purpose (equal RTTs are part of the attack).
	RTT         units.Duration
	SegmentSize units.ByteSize

	// BufferFactors ladder the buffer as multiples of the BDP; note the
	// sqrt(n) rule's 1/sqrt(N) lives inside this range.
	BufferFactors []float64

	// PulsePeakFactor is the pulse pattern's aggregate on-phase rate as
	// a multiple of the bottleneck; PulsePeriod and PulseDuty shape the
	// train.
	PulsePeakFactor float64
	PulsePeriod     units.Duration
	PulseDuty       float64

	// Hops is the parking-lot chain length.
	Hops int

	Warmup, Measure units.Duration

	// RunEnv: the grid is cached per point, audited and resumable. The
	// points run in parallel and a registry is not goroutine-safe, so
	// they are not instrumented: Metrics receives the sweep statistics
	// only.
	RunEnv
}

func (c AdversarialConfig) withDefaults() AdversarialConfig {
	if len(c.Patterns) == 0 {
		for i := range adversary.PatternNames() {
			c.Patterns = append(c.Patterns, adversary.Pattern(i))
		}
	}
	if c.N == 0 {
		c.N = 16
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 40 * units.Mbps
	}
	if c.RTT == 0 {
		c.RTT = 100 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if len(c.BufferFactors) == 0 {
		c.BufferFactors = []float64{0.05, 0.125, 0.25, 0.5, 1.0}
	}
	if c.PulsePeakFactor == 0 {
		c.PulsePeakFactor = 4
	}
	if c.PulsePeriod == 0 {
		c.PulsePeriod = 200 * units.Millisecond
	}
	if c.PulseDuty == 0 {
		c.PulseDuty = 0.25
	}
	if c.Hops == 0 {
		c.Hops = 3
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 30 * units.Second
	}
	return c
}

// adversarialPointConfig is the semantic identity of one grid point for
// the run cache: only the fields that change what the point computes,
// so extending the sweep's pattern list or factor ladder replays the
// untouched points as hits.
type adversarialPointConfig struct {
	Seed            int64
	Pattern         adversary.Pattern
	N               int
	BottleneckRate  units.BitRate
	RTT             units.Duration
	SegmentSize     units.ByteSize
	BufferFactor    float64
	PulsePeakFactor float64
	PulsePeriod     units.Duration
	PulseDuty       float64
	Hops            int
	Warmup, Measure units.Duration

	// RunEnv is the sweep's cell env, or the scenario's own.
	RunEnv
}

// AdversarialRow is one (pattern, buffer) cell of the failure-mode
// table.
type AdversarialRow struct {
	Pattern       adversary.Pattern
	BufferFactor  float64 // x BDP
	BufferPackets int     // per bottleneck link

	// Utilization is the bottleneck's measured utilization (the minimum
	// across core links for the parking lot — the through flows' view).
	Utilization float64
	// LossRate is the bottleneck queues' drop fraction of offered
	// packets over the measurement window.
	LossRate float64
	// MeanQueue and PeakQueue are the bottleneck queue's occupancy in
	// packets: the mean over the measurement window and the peak over
	// the whole run (worst link for the parking lot).
	MeanQueue float64
	PeakQueue int
	// SyncIndex is the aggregate-window synchronization index (see
	// SyncPoint); measured for the AIMD cohort, 0 for the others.
	SyncIndex float64
}

// AdversarialTable is the failure-mode dataset in (pattern, factor)
// grid order.
type AdversarialTable []AdversarialRow

// Table implements Result.
func (t AdversarialTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Pattern\tBuffer\tPkts\tUtil\tLoss\tMeanQ\tPeakQ\tSyncIndex")
		for _, r := range t {
			sync := "-"
			if r.SyncIndex != 0 {
				sync = fmt.Sprintf("%.2f", r.SyncIndex)
			}
			fmt.Fprintf(tw, "%v\t%.3fx\t%d\t%.2f%%\t%.3f%%\t%.1f\t%d\t%s\n",
				r.Pattern, r.BufferFactor, r.BufferPackets,
				100*r.Utilization, 100*r.LossRate, r.MeanQueue, r.PeakQueue, sync)
		}
	})
}

// WriteJSON implements Result.
func (t AdversarialTable) WriteJSON(w io.Writer) error { return writeJSON(w, t) }

// RunAdversarial executes the pattern x buffer grid through the sweep
// orchestrator (parallel, cached, checkpointed, resumable).
func RunAdversarial(cfg AdversarialConfig) AdversarialTable {
	cfg = cfg.withDefaults()
	rows := make(AdversarialTable, len(cfg.Patterns)*len(cfg.BufferFactors))
	runSweep(sweepSpec{
		name: "adversarial",
		cfg:  cfg,
		env:  cfg.RunEnv,
	}, len(rows), func(i int) {
		pc := adversarialPointConfig{
			Seed:            cfg.Seed,
			Pattern:         cfg.Patterns[i/len(cfg.BufferFactors)],
			N:               cfg.N,
			BottleneckRate:  cfg.BottleneckRate,
			RTT:             cfg.RTT,
			SegmentSize:     cfg.SegmentSize,
			BufferFactor:    cfg.BufferFactors[i%len(cfg.BufferFactors)],
			PulsePeakFactor: cfg.PulsePeakFactor,
			PulsePeriod:     cfg.PulsePeriod,
			PulseDuty:       cfg.PulseDuty,
			Hops:            cfg.Hops,
			Warmup:          cfg.Warmup,
			Measure:         cfg.Measure,
			RunEnv:          cfg.cell(nil),
		}
		rows[i] = memoRun(pc.RunEnv, "adversarial", pc, func() AdversarialRow {
			return runAdversarialPoint(pc)
		})
	})
	return rows
}

// adversarialBuffer sizes the per-link buffer for one point.
func adversarialBuffer(pc adversarialPointConfig) (bdp, buffer int) {
	bdp = units.PacketsInFlight(pc.BottleneckRate, pc.RTT, pc.SegmentSize)
	buffer = int(pc.BufferFactor * float64(bdp))
	if buffer < 1 {
		buffer = 1
	}
	return bdp, buffer
}

func runAdversarialPoint(pc adversarialPointConfig) AdversarialRow {
	_, buffer := adversarialBuffer(pc)
	return runAdversarialAt(pc, buffer)
}

// runAdversarialAt dispatches one pattern run with the per-link buffer
// already fixed in packets.
func runAdversarialAt(pc adversarialPointConfig, buffer int) AdversarialRow {
	switch pc.Pattern {
	case adversary.PatternPulse, adversary.PatternSyncAIMD:
		return runAdversarialDumbbell(pc, buffer)
	case adversary.PatternParkingLot:
		return runAdversarialParkingLot(pc, buffer)
	}
	panic(fmt.Sprintf("experiment: unhandled adversarial pattern %v", pc.Pattern))
}

// AdversaryScenario is the single-scenario counterpart of the
// RunAdversarial grid: one pattern against one explicit buffer, with
// the zero fields defaulting as in AdversarialConfig. It backs the
// bufsim CLI's -adversary flag, where the buffer arrives in packets
// rather than as a BDP multiple.
type AdversaryScenario struct {
	Seed    int64
	Pattern adversary.Pattern
	// N is the cohort size (see AdversarialConfig.N).
	N int

	BottleneckRate units.BitRate
	RTT            units.Duration
	SegmentSize    units.ByteSize
	// BufferPackets is the per-bottleneck buffer; 0 defaults to the
	// rule-of-thumb BDP.
	BufferPackets int

	PulsePeakFactor float64
	PulsePeriod     units.Duration
	PulseDuty       float64
	Hops            int

	Warmup, Measure units.Duration

	// RunEnv: Metrics, Audit and Cache.
	RunEnv
}

func (c AdversaryScenario) withDefaults() AdversaryScenario {
	base := AdversarialConfig{
		N: c.N, BottleneckRate: c.BottleneckRate, RTT: c.RTT,
		SegmentSize: c.SegmentSize, PulsePeakFactor: c.PulsePeakFactor,
		PulsePeriod: c.PulsePeriod, PulseDuty: c.PulseDuty, Hops: c.Hops,
		Warmup: c.Warmup, Measure: c.Measure,
	}.withDefaults()
	c.N, c.BottleneckRate, c.RTT = base.N, base.BottleneckRate, base.RTT
	c.SegmentSize, c.PulsePeakFactor = base.SegmentSize, base.PulsePeakFactor
	c.PulsePeriod, c.PulseDuty, c.Hops = base.PulsePeriod, base.PulseDuty, base.Hops
	c.Warmup, c.Measure = base.Warmup, base.Measure
	if c.BufferPackets < 1 {
		c.BufferPackets = units.PacketsInFlight(c.BottleneckRate, c.RTT, c.SegmentSize)
	}
	return c
}

// RunAdversaryScenario runs one adversarial pattern at one buffer and
// reports the same row the failure-mode table would hold for it.
func RunAdversaryScenario(cfg AdversaryScenario) AdversarialRow {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "adversary-scenario", cfg, func() AdversarialRow {
		bdp := units.PacketsInFlight(cfg.BottleneckRate, cfg.RTT, cfg.SegmentSize)
		pc := adversarialPointConfig{
			Seed:            cfg.Seed,
			Pattern:         cfg.Pattern,
			N:               cfg.N,
			BottleneckRate:  cfg.BottleneckRate,
			RTT:             cfg.RTT,
			SegmentSize:     cfg.SegmentSize,
			BufferFactor:    float64(cfg.BufferPackets) / float64(bdp),
			PulsePeakFactor: cfg.PulsePeakFactor,
			PulsePeriod:     cfg.PulsePeriod,
			PulseDuty:       cfg.PulseDuty,
			Hops:            cfg.Hops,
			Warmup:          cfg.Warmup,
			Measure:         cfg.Measure,
			RunEnv:          cfg.RunEnv,
		}
		return runAdversarialAt(pc, cfg.BufferPackets)
	})
}

// runAdversarialDumbbell measures the pulse or AIMD pattern on the
// standard dumbbell with a fixed RTT.
func runAdversarialDumbbell(pc adversarialPointConfig, buffer int) AdversarialRow {
	b := newBed(bedConfig{
		env:      pc.RunEnv,
		seed:     pc.Seed,
		rate:     pc.BottleneckRate,
		delay:    pc.RTT / 10,
		rttMin:   pc.RTT,
		stations: pc.N,
		buffer:   buffer,
	})
	switch pc.Pattern {
	case adversary.PatternPulse:
		adversary.Pulse{
			Senders:    pc.N,
			PeakRate:   units.BitRate(pc.PulsePeakFactor * float64(pc.BottleneckRate)),
			Period:     pc.PulsePeriod,
			Duty:       pc.PulseDuty,
			PacketSize: pc.SegmentSize,
		}.Bind(b.d, b.rng.Fork()).Start()
	case adversary.PatternSyncAIMD:
		adversary.SyncAIMD{
			N:   pc.N,
			TCP: tcp.Config{SegmentSize: pc.SegmentSize},
		}.Bind(b.d, b.rng.Fork()).Start()
	}

	var aggregate *trace.Series
	w := b.measure(pc.Warmup, pc.Measure, func() {
		if pc.Pattern == adversary.PatternSyncAIMD {
			aggregate = b.sample("aggregate_window", 10*units.Millisecond, b.d.AggregateWindow)
		}
	})

	row := AdversarialRow{
		Pattern:       pc.Pattern,
		BufferFactor:  pc.BufferFactor,
		BufferPackets: buffer,
		Utilization:   w.Utilization,
		LossRate:      w.LossRate,
		MeanQueue:     w.MeanQueue,
		PeakQueue:     w.PeakQueue,
	}
	if aggregate != nil {
		if mean, sd := fitNormal(aggregate.Values); mean > 0 {
			row.SyncIndex = (sd / mean) / (sawtoothCoV / math.Sqrt(float64(pc.N)))
		}
	}
	return row
}

// runAdversarialParkingLot measures the load-balanced multi-bottleneck
// pattern: N/2 through flows plus N/2 cross flows per hop, so every
// core link carries N flows and none is "the" bottleneck. The row holds
// the worst link's utilization and queue, and the chain's pooled loss.
func runAdversarialParkingLot(pc adversarialPointConfig, buffer int) AdversarialRow {
	// The chain's one-way core delay must fit inside RTT/2.
	b := newLot(pc.RunEnv, pc.Hops, pc.BottleneckRate, pc.RTT/units.Duration(4*pc.Hops), buffer)
	through := pc.N / 2
	if through < 1 {
		through = 1
	}
	load := adversary.ParkingLotLoad{Through: through, PerHop: pc.N - through, RTT: pc.RTT}
	load.Build(b.sched, b.p, tcp.Config{SegmentSize: pc.SegmentSize})

	ws := b.measure(pc.Warmup, pc.Measure, nil)

	row := AdversarialRow{
		Pattern:       pc.Pattern,
		BufferFactor:  pc.BufferFactor,
		BufferPackets: buffer,
		Utilization:   1,
	}
	var dropped, offered int64
	for _, w := range ws {
		row.Utilization = math.Min(row.Utilization, w.Utilization)
		row.MeanQueue = math.Max(row.MeanQueue, w.MeanQueue)
		if w.PeakQueue > row.PeakQueue {
			row.PeakQueue = w.PeakQueue
		}
		dropped += w.dropped
		offered += w.offered
	}
	row.LossRate = lossRate(dropped, offered)
	return row
}

// ProbeLadderConfig drives the black-box probe validation: each queue
// discipline instantiated across a ladder of configured limits, probed
// with internal/probe, and compared against ground truth.
type ProbeLadderConfig struct {
	Seed int64

	// Rate is the probe's emulated service rate.
	Rate units.BitRate
	// Limits is the ladder of configured buffer sizes in packets.
	Limits []int
	// SegmentSize is the probe's standard packet.
	SegmentSize units.ByteSize

	// RunEnv: Cache memoizes the table. Probing is not a simulation, so
	// the observers see nothing — they only force the table to be
	// recomputed, as they force any cached run.
	RunEnv
}

func (c ProbeLadderConfig) withDefaults() ProbeLadderConfig {
	if c.Rate == 0 {
		c.Rate = 10 * units.Mbps
	}
	if len(c.Limits) == 0 {
		c.Limits = []int{16, 32, 64, 128, 256}
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	return c
}

// ProbeLadderRow is one (discipline, limit) probe outcome.
type ProbeLadderRow struct {
	Discipline probe.Policy // ground truth
	Limit      int          // configured, packets

	Estimated  int     // probe's capacity estimate, packets
	ErrPct     float64 // |Estimated - Limit| / Limit, percent
	Classified probe.Policy
	Mode       probe.LimitMode
	Correct    bool // classification matches ground truth
}

// ProbeLadderTable is the probe validation dataset.
type ProbeLadderTable []ProbeLadderRow

// Table implements Result.
func (t ProbeLadderTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Discipline\tLimit\tEstimated\tErr\tClassified\tMode\tCorrect")
		for _, r := range t {
			fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f%%\t%v\t%v\t%v\n",
				r.Discipline, r.Limit, r.Estimated, r.ErrPct, r.Classified, r.Mode, r.Correct)
		}
	})
}

// WriteJSON implements Result.
func (t ProbeLadderTable) WriteJSON(w io.Writer) error { return writeJSON(w, t) }

// RunProbeLadder probes every discipline x limit cell. The table is one
// cache unit: probing is fast, so per-cell memoization would be all
// overhead.
func RunProbeLadder(cfg ProbeLadderConfig) ProbeLadderTable {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "probe-ladder", cfg, func() ProbeLadderTable {
		return runProbeLadder(cfg)
	})
}

func runProbeLadder(cfg ProbeLadderConfig) ProbeLadderTable {
	meanPkt := units.TransmissionTime(cfg.SegmentSize, cfg.Rate)
	var out ProbeLadderTable
	for disc := probe.PolicyDropTail; disc <= probe.PolicyCoDel; disc++ {
		for _, limit := range cfg.Limits {
			var q probe.BlackBox
			switch disc {
			case probe.PolicyDropTail:
				q = queue.NewDropTail(queue.PacketLimit(limit))
			case probe.PolicyRED:
				rng := sim.NewRNG(cfg.Seed + int64(limit))
				q = queue.NewRED(queue.DefaultRED(limit, meanPkt, rng.Float64))
			case probe.PolicyCoDel:
				q = queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(limit)})
			}
			est, err := probe.Run(q, probe.Config{Rate: cfg.Rate, PacketSize: cfg.SegmentSize})
			if err != nil {
				panic(fmt.Sprintf("experiment: probe of %v limit %d: %v", disc, limit, err))
			}
			out = append(out, ProbeLadderRow{
				Discipline: disc,
				Limit:      limit,
				Estimated:  est.CapacityPackets,
				ErrPct:     100 * math.Abs(float64(est.CapacityPackets)-float64(limit)) / float64(limit),
				Classified: est.Policy,
				Mode:       est.Mode,
				Correct:    est.Policy == disc,
			})
		}
	}
	return out
}
