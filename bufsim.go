// Package bufsim is a discrete-event TCP network simulator and analytical
// toolkit reproducing "Sizing Router Buffers" (Appenzeller, Keslassy,
// McKeown — SIGCOMM 2004).
//
// The paper's result: a bottleneck link of capacity C carrying n
// desynchronized long-lived TCP flows needs only
//
//	B = RTT x C / sqrt(n)
//
// of buffering — not the classical rule-of-thumb B = RTT x C — to stay at
// near-full utilization; and short, slow-start-only flows need a small
// buffer that depends only on offered load and burst sizes, independent of
// the line rate.
//
// Three entry points:
//
//   - Sizing rules and analytic models on a Link description:
//     Link{...}.RuleOfThumb(), Link{...}.SqrtRule(n),
//     Link{...}.PredictUtilization(n, buffer),
//     Link{...}.ShortFlowBuffer(load, pDrop, flowLen, maxWindow).
//
//   - Packet-level simulation: Run(scenario, traffic, options...).
//
//   - Full paper reproduction: the internal/experiment package drives
//     every figure and table; cmd/paperexp exposes them on the command
//     line and bench_test.go regenerates them as Go benchmarks.
//
// The paper evaluates one apparatus, the dumbbell of its Fig. 1, and a
// Scenario states it once: the bottleneck Link, its buffer and queue
// discipline (drop-tail or RED), the warm-up and measurement window, and
// the Sender every flow runs (congestion control —
// Reno/NewReno/SACK/Tahoe/CUBIC/BBR — pacing, delayed ACKs). Only the
// traffic changes, and it is one of seven kinds; Run returns the kind's
// result, typed:
//
//	LongLived   n long-lived flows (§3, §5.1)          SimulationResult
//	Replicated  LongLived under k seeds (error bars)   ReplicatedResult
//	SingleFlow  one flow's sawtooth (Figs. 2-5)        SingleFlowResult
//	Mix         long-lived plus short flows (§5.1.3)   MixResult
//	Trace       a recorded flow trace, replayed        TraceResult
//	Generated   any Workload: Poisson short flows      ProfileResult
//	            (§4), sessions, trace replay or a
//	            time-varying Profile
//	Adversary   a worst-case traffic pattern           AdversaryResult
//
// Each field lives only in the kinds that read it. Run checks its input
// and returns an error naming the field that is wrong, including a
// Scenario field the kind would ignore:
//
//	link := bufsim.Link{Rate: bufsim.OC3, RTT: 100 * bufsim.Millisecond}
//	res, err := bufsim.Run(bufsim.Scenario{Link: link, BufferPackets: link.SqrtRule(400)},
//		bufsim.LongLived{Flows: 400, RTTSpread: 80 * bufsim.Millisecond})
//
// Options attach observers and execution policy, never behaviour:
// WithMetrics (a telemetry Registry), WithAudit (the conservation-law
// checker, see Auditor), WithCacheStore (the content-addressed result
// Cache), WithParallelism (how many of Replicated's seeds run at once) and
// WithShards (the parallel event kernel). None of them can change a
// result: the same seed produces the same packets with any of them on or
// off. Every result implements Result (Table), and WriteJSON dumps any of
// them.
package bufsim

import (
	"bufsim/internal/experiment"
	"bufsim/internal/model"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// Variant selects the TCP congestion-control flavour for simulations.
type Variant = tcp.Variant

// Congestion-control variants. Reno, Tahoe, NewReno and SACK are the
// classic loss-based window algorithms the paper studied; Cubic and BBR
// are the modern families the updated buffer-sizing theory compares
// against the sqrt rule.
const (
	Reno    = tcp.Reno
	Tahoe   = tcp.Tahoe
	NewReno = tcp.NewReno
	Sack    = tcp.Sack
	Cubic   = tcp.Cubic
	BBR     = tcp.BBR
)

// ParseVariant parses a congestion-control name — "reno", "tahoe",
// "newreno", "sack", "cubic" or "bbr", case-insensitive, with common
// aliases like "new-reno" and "bbrv1" — into a Variant. The empty
// string parses as Reno, the zero value, so optional config fields
// round-trip. Variant also implements
// encoding.TextMarshaler/TextUnmarshaler, so JSON configs can carry the
// name directly.
func ParseVariant(s string) (Variant, error) { return tcp.ParseVariant(s) }

// VariantNames lists the canonical names of every registered
// congestion-control variant, in declaration order.
func VariantNames() []string { return tcp.VariantNames() }

// Re-exported quantity types, so callers need no internal imports.
type (
	// Duration is simulated time in nanoseconds.
	Duration = units.Duration
	// Time is an absolute simulated instant in nanoseconds.
	Time = units.Time
	// BitRate is bits per second.
	BitRate = units.BitRate
	// ByteSize is a size in bytes.
	ByteSize = units.ByteSize
)

// Re-exported unit constants.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps
	OC3  = units.OC3
	OC12 = units.OC12
	OC48 = units.OC48

	Byte     = units.Byte
	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte

	// DefaultSegment is the packet size assumed when a Link or config
	// leaves SegmentSize zero.
	DefaultSegment = units.DefaultSegment
)

// ParseDuration parses "250ms", "2.5s", "80us", "10ns".
func ParseDuration(s string) (Duration, error) { return units.ParseDuration(s) }

// ParseBitRate parses "155Mbps", "2.5Gbps", "56Kbps".
func ParseBitRate(s string) (BitRate, error) { return units.ParseBitRate(s) }

// Link describes a bottleneck link for buffer sizing. RTT is the mean
// two-way propagation delay of the flows crossing it (the paper's
// RTT-bar), SegmentSize the packet size buffers are counted in.
type Link struct {
	Rate        BitRate
	RTT         Duration
	SegmentSize ByteSize // defaults to 1000 bytes
}

func (l Link) segment() ByteSize {
	if l.SegmentSize == 0 {
		return DefaultSegment
	}
	return l.SegmentSize
}

// path lowers the link and a scenario's window onto the experiment
// layer's Path, with station RTTs across [RTT-spread/2, RTT+spread/2].
func (l Link) path(spread, warmup, measure Duration) experiment.Path {
	return experiment.Path{
		BottleneckRate: l.Rate,
		RTTMin:         l.RTT - spread/2,
		RTTMax:         l.RTT + spread/2,
		SegmentSize:    l.segment(),
		Warmup:         warmup,
		Measure:        measure,
	}
}

// fixedPath is path for the scenarios that put every flow at exactly
// Link.RTT.
func (l Link) fixedPath(warmup, measure Duration) experiment.Path {
	p := l.path(0, warmup, measure)
	p.RTTMax = 0
	return p
}

// BDP returns the link's bandwidth-delay product in packets.
func (l Link) BDP() int {
	return units.PacketsInFlight(l.Rate, l.RTT, l.segment())
}

// RuleOfThumb returns the classical B = RTT x C buffer in packets.
func (l Link) RuleOfThumb() int {
	return model.RuleOfThumbPackets(l.RTT, l.Rate, l.segment())
}

// SqrtRule returns the paper's B = RTT x C / sqrt(n) buffer in packets for
// n concurrent long-lived flows.
func (l Link) SqrtRule(n int) int {
	return model.SqrtRulePackets(l.RTT, l.Rate, l.segment(), n)
}

// PredictUtilization returns the Gaussian-model utilization estimate for a
// buffer of bufferPkts packets shared by n long-lived flows.
func (l Link) PredictUtilization(n, bufferPkts int) float64 {
	g := model.LongFlowGaussian{N: n, BDP: float64(l.BDP())}
	return g.Utilization(float64(bufferPkts))
}

// ShortFlowBuffer returns the §4 M/G/1 bound: the buffer (packets) that
// keeps short-flow drop probability at or below pDrop when flows of
// flowLen segments (slow start, window capped at maxWindow) offer the
// given load. Note the result does not depend on the link at all — that
// is the paper's point — so this is a plain function dressed as a method
// for discoverability.
func (Link) ShortFlowBuffer(load, pDrop float64, flowLen int64, maxWindow int) float64 {
	m := model.MomentsForFlowLength(flowLen, 2, maxWindow)
	return m.MinBuffer(load, pDrop)
}

// ShortFlowBufferForSizes is ShortFlowBuffer for an empirical flow-size
// sample (e.g. the sizes from a recorded trace) instead of a single
// length: burst moments are pooled across the sample, so heavy-tailed
// mixes — whose large flows emit many max-window bursts — get the larger
// buffer they actually need.
func (Link) ShortFlowBufferForSizes(load, pDrop float64, sizes []int64, maxWindow int) float64 {
	dist := make(map[int64]float64, len(sizes))
	w := 1 / float64(len(sizes))
	for _, s := range sizes {
		dist[s] += w
	}
	m := model.MomentsForDistribution(dist, 2, maxWindow)
	return m.MinBuffer(load, pDrop)
}

// Pareto returns the heavy-tailed flow-size distribution used by the
// production-mix experiments, exposed for workload construction.
func Pareto(shape float64, minSeg, maxSeg int64) workload.SizeDist {
	return workload.ParetoSize{Shape: shape, Min: minSeg, Max: maxSeg}
}

// Memory is the §1.3 hardware-feasibility verdict for a buffer size: what
// it takes to build it from 2004-vintage commodity memory. It is how the
// paper argues the sqrt(n) rule matters — the difference between boards
// of DRAM and a corner of the packet processor die.
type Memory struct {
	SRAMChips   int  // 36 Mbit devices to hold the buffer
	DRAMChips   int  // 1 Gbit devices to hold the buffer
	DRAMKeepsUp bool // can 50 ns DRAM sustain per-packet access at this rate?
	FitsOnChip  bool // fits in a 256 Mbit embedded-DRAM packet processor?
	Description string
}

// MemoryFeasibility evaluates a buffer of bufferPkts packets on this link
// against the paper's memory technologies.
func (l Link) MemoryFeasibility(bufferPkts int) Memory {
	f := model.Feasibility(l.Rate, ByteSize(bufferPkts)*l.segment())
	return Memory{
		SRAMChips:   f.SRAMChips,
		DRAMChips:   f.DRAMChips,
		DRAMKeepsUp: f.DRAMKeepsUp,
		FitsOnChip:  f.FitsOnChip,
		Description: f.String(),
	}
}
