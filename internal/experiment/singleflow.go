package experiment

import (
	"bufsim/internal/stats"
	"bufsim/internal/tcp"
	"bufsim/internal/trace"
	"bufsim/internal/units"
)

// SingleFlowConfig reproduces the paper's Figs. 2–5: one long-lived TCP
// flow through a bottleneck whose buffer is a multiple of the
// bandwidth-delay product.
type SingleFlowConfig struct {
	// Seed feeds the randomized queue discipline when UseRED is set; a
	// plain drop-tail single-flow run is fully deterministic and ignores
	// it.
	Seed int64

	// Path defaults to singleFlowPath. RTTMin is the flow's two-way
	// propagation delay (2*Tp), a quarter of it across the bottleneck
	// unless BottleneckDelay says otherwise.
	Path

	// BufferFactor sizes the buffer as BufferFactor x (RTT x C):
	// 1.0 is Fig. 3 (rule of thumb), <1 is Fig. 4 (underbuffered),
	// >1 is Fig. 5 (overbuffered).
	BufferFactor float64

	SampleEvery units.Duration

	// Variant, DelayedAck and Paced select the sender's congestion-control
	// behaviour (default: plain ACK-clocked Reno, the paper's setup).
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to Random Early Detection sized to
	// the same buffer — the sawtooth under early, randomized drops.
	UseRED bool

	// RunEnv: Metrics, Audit, Cache (the memoized result includes the time
	// series) and Shards — with one station at most two shards take effect
	// (bottleneck shard + station shard).
	RunEnv
}

// singleFlowPath is Figs. 2-5: 10 Mb/s, one fixed 100 ms RTT. A single
// flow's congestion-avoidance cycle is long (the window climbs one
// segment per RTT from Wmax/2 back to Wmax), and the initial slow-start
// overshoot collapses ssthresh far below the BDP, so the first ~minute
// is transient; the windows sit well past it.
var singleFlowPath = Path{
	BottleneckRate: 10 * units.Mbps,
	RTTMin:         100 * units.Millisecond,
	SegmentSize:    units.DefaultSegment,
	Warmup:         100 * units.Second,
	Measure:        200 * units.Second,
}

func (c SingleFlowConfig) withDefaults() SingleFlowConfig {
	c.Path = c.Path.or(singleFlowPath)
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * units.Millisecond
	}
	return c
}

// SingleFlowResult carries the Fig. 2/3 time series plus summary metrics.
type SingleFlowResult struct {
	BDPPackets    int
	BufferPackets int
	Utilization   float64
	MeanQueue     float64 // packets, time-averaged over the measurement window
	MinQueueSeen  float64 // smallest sampled occupancy in the window
	Cwnd          *trace.Series
	Queue         *trace.Series
}

// RunSingleFlow executes the Fig. 2–5 scenario. With cfg.Cache set the
// result is memoized.
func RunSingleFlow(cfg SingleFlowConfig) SingleFlowResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "single-flow", cfg, func() SingleFlowResult {
		return runSingleFlow(cfg)
	})
}

// runSingleFlow is the uncached body of RunSingleFlow; cfg has defaults
// applied.
func runSingleFlow(cfg SingleFlowConfig) SingleFlowResult {
	bdp := cfg.BDP()
	buffer := max(1, int(cfg.BufferFactor*float64(bdp)))
	b := newBed(bedConfig{
		env:      cfg.RunEnv,
		seed:     cfg.Seed,
		Path:     cfg.Path.or(Path{BottleneckDelay: cfg.RTTMin / 4}),
		stations: 1,
		shards:   cfg.Shards,
		buffer:   buffer,
		red:      cfg.UseRED,
	})
	f := b.d.AddFlow(b.d.Station(0), tcp.Config{
		SegmentSize: cfg.SegmentSize,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
	})
	f.Sender.Start()
	cwnd := b.sample("cwnd_pkts", cfg.SampleEvery, f.Sender.Cwnd)
	qlen := b.sample("queue_pkts", cfg.SampleEvery,
		func() float64 { return float64(b.d.Bottleneck.Queue().Len()) })

	w := b.measure(nil)
	res := SingleFlowResult{
		BDPPackets:    bdp,
		BufferPackets: buffer,
		Utilization:   w.Utilization,
		Cwnd:          w.of(cwnd),
		Queue:         w.of(qlen),
	}
	res.MinQueueSeen = res.Queue.Min()
	res.MeanQueue = stats.Mean(res.Queue.Values)
	return res
}
