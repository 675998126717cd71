package experiment

import (
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// MultiHopConfig tests the paper's single-congestion-point assumption
// (§5.1): a two-hop parking lot where both links are bottlenecks, each
// buffered by the sqrt(n) rule for the flows crossing it. One third of
// the flows cross both links (and therefore see two congestion points —
// the case the paper assumes away); the rest load one hop each.
type MultiHopConfig struct {
	Seed int64

	// Path defaults to multiHopPath; BottleneckRate and BottleneckDelay
	// are each of the two links'.
	Path
	NPerGroup int // flows crossing both, hop 1 only, hop 2 only

	// BufferFactor scales each link's buffer relative to
	// RTTxC/sqrt(flows crossing that link).
	BufferFactor float64

	// RunEnv: Metrics, Audit and Cache.
	RunEnv
}

// multiHopPath is two 40 Mb/s bottlenecks, 5 ms each.
var multiHopPath = Path{
	BottleneckRate:  40 * units.Mbps,
	BottleneckDelay: 5 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         40 * units.Second,
}

func (c MultiHopConfig) withDefaults() MultiHopConfig {
	c.Path = c.Path.or(multiHopPath)
	if c.NPerGroup == 0 {
		c.NPerGroup = 100
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	return c
}

// MultiHopResult summarizes the two-bottleneck run.
type MultiHopResult struct {
	BufferPackets int // per link
	FlowsPerLink  int
	Util          [2]float64
	LossRate      [2]float64
	// CrossingShare is the crossing group's fraction of hop-1 delivered
	// segments; with perfect fairness it is 0.5 (they are half of each
	// link's flows). TCP's known multi-bottleneck bias pushes it lower.
	CrossingShare float64
}

// RunMultiHop executes the two-bottleneck scenario. With cfg.Cache set
// the result is memoized.
func RunMultiHop(cfg MultiHopConfig) MultiHopResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "multihop", cfg, func() MultiHopResult {
		return runMultiHop(cfg)
	})
}

// runMultiHop is the uncached body of RunMultiHop; cfg has defaults
// applied.
func runMultiHop(cfg MultiHopConfig) MultiHopResult {
	rng := sim.NewRNG(cfg.Seed)

	perLink := 2 * cfg.NPerGroup // crossing + local flows on each link
	buffer := cfg.sqrtRuleTimes(cfg.BufferFactor, perLink)
	b := newLot(cfg.RunEnv, 2, cfg.Path, buffer)
	p := b.p

	rtt := func() units.Duration {
		return units.Duration(rng.Uniform(float64(cfg.RTTMin), float64(cfg.RTTMax)))
	}
	spec := tcp.Config{SegmentSize: cfg.SegmentSize}
	var crossing []*topology.PathFlow
	for i := 0; i < cfg.NPerGroup; i++ {
		for _, path := range [][2]int{{0, 2}, {0, 1}, {1, 2}} {
			f := p.AddFlow(path[0], path[1], rtt(), spec)
			if path == [2]int{0, 2} {
				crossing = append(crossing, f)
			}
			start := units.Epoch.Add(units.Duration(rng.Uniform(0, float64(cfg.Warmup/2))))
			b.sched.PostAt(start, f.Sender, tcp.OpStart, nil)
		}
	}

	// crossSent and hop1 count the window's segments: snapshotted at its
	// start, differenced at its end.
	crossSent := func() (n int64) {
		for _, f := range crossing {
			n += f.Sender.Stats().SegmentsSent
		}
		return n
	}
	var crossSnap, hop1Snap int64
	ws := b.measure(func() {
		crossSnap, hop1Snap = crossSent(), p.Links[0].DeliveredPackets()
	})

	res := MultiHopResult{BufferPackets: buffer, FlowsPerLink: perLink}
	for i, w := range ws {
		res.Util[i], res.LossRate[i] = w.Utilization, w.LossRate
	}
	if hop1 := p.Links[0].DeliveredPackets() - hop1Snap; hop1 > 0 {
		res.CrossingShare = float64(crossSent()-crossSnap) / float64(hop1)
	}
	return res
}
