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

	LinkRate       units.BitRate
	NPerGroup      int // flows crossing both, hop 1 only, hop 2 only
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize

	// BufferFactor scales each link's buffer relative to
	// RTTxC/sqrt(flows crossing that link).
	BufferFactor float64

	Warmup, Measure units.Duration

	// RunEnv: Metrics, Audit and Cache.
	RunEnv
}

func (c MultiHopConfig) withDefaults() MultiHopConfig {
	if c.LinkRate == 0 {
		c.LinkRate = 40 * units.Mbps
	}
	if c.NPerGroup == 0 {
		c.NPerGroup = 100
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 140 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
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

	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := units.PacketsInFlight(cfg.LinkRate, meanRTT, cfg.SegmentSize)
	perLink := 2 * cfg.NPerGroup // crossing + local flows on each link
	buffer := int(cfg.BufferFactor * float64(SqrtRuleBuffer(float64(bdp), perLink)))
	if buffer < 1 {
		buffer = 1
	}
	b := newLot(cfg.RunEnv, 2, cfg.LinkRate, 5*units.Millisecond, buffer)
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
	ws := b.measure(cfg.Warmup, cfg.Measure, func() {
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
