package experiment

import (
	"fmt"
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
	AdversaryCohort

	// BufferFactors ladder the buffer as multiples of the BDP; note the
	// sqrt(n) rule's 1/sqrt(N) lives inside this range.
	BufferFactors []float64

	// RunEnv: the grid is cached per point, audited and resumable. The
	// points run in parallel and a registry is not goroutine-safe, so
	// they are not instrumented: Metrics receives the sweep statistics
	// only.
	RunEnv
}

// AdversaryCohort is what the grid and the single scenario share: the
// cohort, the path it attacks and the patterns' shape.
type AdversaryCohort struct {
	// N is the pattern's cohort size: pulse trains, AIMD flows, or
	// flows per core link in the parking lot.
	N int

	// Path defaults to adversarialPath. RTTMin is every flow's two-way
	// propagation delay; a single value on purpose (equal RTTs are part
	// of the attack). The bottleneck's share of it is the pattern's —
	// a tenth on the dumbbell, a quarter spread over the parking lot's
	// hops — unless BottleneckDelay says otherwise.
	Path

	// PulsePeakFactor is the pulse pattern's aggregate on-phase rate as
	// a multiple of the bottleneck; PulsePeriod and PulseDuty shape the
	// train.
	PulsePeakFactor float64
	PulsePeriod     units.Duration
	PulseDuty       float64

	// Hops is the parking-lot chain length.
	Hops int
}

// adversarialPath is the hostile bed: 40 Mb/s and one fixed 100 ms RTT.
var adversarialPath = Path{
	BottleneckRate: 40 * units.Mbps,
	RTTMin:         100 * units.Millisecond,
	SegmentSize:    units.DefaultSegment,
	Warmup:         10 * units.Second,
	Measure:        30 * units.Second,
}

func (c AdversaryCohort) withDefaults() AdversaryCohort {
	if c.N == 0 {
		c.N = 16
	}
	c.Path = c.Path.or(adversarialPath)
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
	return c
}

func (c AdversarialConfig) withDefaults() AdversarialConfig {
	if len(c.Patterns) == 0 {
		for i := range adversary.PatternNames() {
			c.Patterns = append(c.Patterns, adversary.Pattern(i))
		}
	}
	c.AdversaryCohort = c.AdversaryCohort.withDefaults()
	if len(c.BufferFactors) == 0 {
		c.BufferFactors = []float64{0.05, 0.125, 0.25, 0.5, 1.0}
	}
	return c
}

// adversarialPointConfig is the semantic identity of one grid point for
// the run cache: the scenario at the point's buffer plus the ladder
// factor its row reports — only what changes what the point computes,
// so extending the sweep's pattern list or factor ladder replays the
// untouched points as hits.
type adversarialPointConfig struct {
	AdversaryScenario
	BufferFactor float64
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

// Table implements Result: the row as a one-row failure-mode table.
func (r AdversarialRow) Table() string { return AdversarialTable{r}.Table() }

// RunAdversarial executes the pattern x buffer grid through the sweep
// orchestrator (parallel, cached, checkpointed, resumable).
func RunAdversarial(cfg AdversarialConfig) AdversarialTable {
	cfg = cfg.withDefaults()
	return sweep("adversarial", cfg, cfg.RunEnv, len(cfg.Patterns)*len(cfg.BufferFactors), func(i int, cell RunEnv) AdversarialRow {
		factor := cfg.BufferFactors[i%len(cfg.BufferFactors)]
		pc := adversarialPointConfig{AdversaryScenario{
			Seed:            cfg.Seed,
			Pattern:         cfg.Patterns[i/len(cfg.BufferFactors)],
			AdversaryCohort: cfg.AdversaryCohort,
			BufferPackets:   max(1, int(factor*float64(cfg.BDP()))),
			RunEnv:          cell,
		}, factor}
		return memoRun(cell, "adversarial", pc, func() AdversarialRow {
			return runAdversarialAt(pc.AdversaryScenario, factor)
		})
	})
}

// runAdversarialAt dispatches one pattern run; factor is what the row
// reports as its buffer's multiple of the BDP.
func runAdversarialAt(sc AdversaryScenario, factor float64) AdversarialRow {
	switch sc.Pattern {
	case adversary.PatternPulse, adversary.PatternSyncAIMD:
		return runAdversarialDumbbell(sc, factor)
	case adversary.PatternParkingLot:
		return runAdversarialParkingLot(sc, factor)
	}
	panic(fmt.Sprintf("experiment: unhandled adversarial pattern %v", sc.Pattern))
}

// AdversaryScenario is the single-scenario counterpart of the
// RunAdversarial grid: one pattern against one explicit buffer. It backs
// the bufsim CLI's -adversary flag, where the buffer arrives in packets
// rather than as a BDP multiple.
type AdversaryScenario struct {
	Seed    int64
	Pattern adversary.Pattern
	AdversaryCohort
	// BufferPackets is the per-bottleneck buffer; 0 defaults to the
	// rule-of-thumb BDP.
	BufferPackets int

	// RunEnv: Metrics, Audit and Cache.
	RunEnv
}

func (c AdversaryScenario) withDefaults() AdversaryScenario {
	c.AdversaryCohort = c.AdversaryCohort.withDefaults()
	if c.BufferPackets < 1 {
		c.BufferPackets = c.BDP()
	}
	return c
}

// RunAdversaryScenario runs one adversarial pattern at one buffer and
// reports the same row the failure-mode table would hold for it.
func RunAdversaryScenario(cfg AdversaryScenario) AdversarialRow {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "adversary-scenario", cfg, func() AdversarialRow {
		return runAdversarialAt(cfg, float64(cfg.BufferPackets)/float64(cfg.BDP()))
	})
}

// runAdversarialDumbbell measures the pulse or AIMD pattern on the
// standard dumbbell with a fixed RTT.
func runAdversarialDumbbell(sc AdversaryScenario, factor float64) AdversarialRow {
	b := newBed(bedConfig{
		env:      sc.RunEnv,
		seed:     sc.Seed,
		Path:     sc.Path.or(Path{BottleneckDelay: sc.RTTMin / 10}),
		stations: sc.N,
		buffer:   sc.BufferPackets,
	})
	switch sc.Pattern {
	case adversary.PatternPulse:
		b.start(adversary.Pulse{
			Senders:    sc.N,
			PeakRate:   units.BitRate(sc.PulsePeakFactor * float64(sc.BottleneckRate)),
			Period:     sc.PulsePeriod,
			Duty:       sc.PulseDuty,
			PacketSize: sc.SegmentSize,
		})
	case adversary.PatternSyncAIMD:
		b.start(adversary.SyncAIMD{
			N:   sc.N,
			TCP: tcp.Config{SegmentSize: sc.SegmentSize},
		})
	}

	var aggregate *trace.Series
	w := b.measure(func() {
		if sc.Pattern == adversary.PatternSyncAIMD {
			aggregate = b.sample("aggregate_window", 10*units.Millisecond, b.d.AggregateWindow)
		}
	})

	row := AdversarialRow{
		Pattern:       sc.Pattern,
		BufferFactor:  factor,
		BufferPackets: sc.BufferPackets,
		Utilization:   w.Utilization,
		LossRate:      w.LossRate,
		MeanQueue:     w.MeanQueue,
		PeakQueue:     w.PeakQueue,
	}
	if aggregate != nil {
		if mean, sd := fitNormal(aggregate.Values); mean > 0 {
			row.SyncIndex = (sd / mean) / (sawtoothCoV / math.Sqrt(float64(sc.N)))
		}
	}
	return row
}

// runAdversarialParkingLot measures the load-balanced multi-bottleneck
// pattern: N/2 through flows plus N/2 cross flows per hop, so every
// core link carries N flows and none is "the" bottleneck. The row holds
// the worst link's utilization and queue, and the chain's pooled loss.
func runAdversarialParkingLot(sc AdversaryScenario, factor float64) AdversarialRow {
	// The chain's one-way core delay must fit inside RTT/2.
	b := newLot(sc.RunEnv, sc.Hops, sc.Path.or(Path{BottleneckDelay: sc.RTTMin / units.Duration(4*sc.Hops)}), sc.BufferPackets)
	through := max(1, sc.N/2)
	load := adversary.ParkingLotLoad{Through: through, PerHop: sc.N - through, RTT: sc.RTTMin}
	load.Build(b.sched, b.p, tcp.Config{SegmentSize: sc.SegmentSize})

	ws := b.measure(nil)

	row := AdversarialRow{
		Pattern:       sc.Pattern,
		BufferFactor:  factor,
		BufferPackets: sc.BufferPackets,
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
