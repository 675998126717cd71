package experiment

import "bufsim/internal/units"

// Path is the paper's Fig. 1 dumbbell and the window it is measured
// over — what every experiment in this package shares, declared once.
// Every config that describes a dumbbell embeds it, so its fields read
// and assign as the config's own (cfg.BottleneckRate, cfg.Warmup) and a
// sweep hands its cells the whole description as Path: cfg.Path.
//
// What varies between experiments is deliberately not here: the traffic,
// the buffer and the queue discipline stay with each config.
type Path struct {
	// BottleneckRate is the shared link's capacity C.
	BottleneckRate units.BitRate
	// BottleneckDelay is the shared link's one-way propagation delay.
	BottleneckDelay units.Duration
	// Station two-way propagation delays are drawn uniformly from
	// [RTTMin, RTTMax]. RTTMax 0 is one fixed RTT: every station sits at
	// RTTMin and nothing is drawn — the single-flow and adversarial
	// scenarios, whose default paths therefore leave it 0.
	RTTMin, RTTMax units.Duration
	// SegmentSize is the packet size buffers are counted in.
	SegmentSize units.ByteSize
	// Warmup is run and discarded; Measure is the window after it.
	Warmup, Measure units.Duration
}

// or returns p with each zero field taken from d: how an experiment's
// paper parameters — one Path literal beside its config — default
// whatever the caller left unset. A sweep resolves its path once and its
// cells inherit every field, so a field is defaulted at the level that
// declares the literal and nowhere below.
func (p Path) or(d Path) Path {
	if p.BottleneckRate == 0 {
		p.BottleneckRate = d.BottleneckRate
	}
	if p.BottleneckDelay == 0 {
		p.BottleneckDelay = d.BottleneckDelay
	}
	if p.RTTMin == 0 {
		p.RTTMin = d.RTTMin
	}
	if p.RTTMax == 0 {
		p.RTTMax = d.RTTMax
	}
	if p.SegmentSize == 0 {
		p.SegmentSize = d.SegmentSize
	}
	if p.Warmup == 0 {
		p.Warmup = d.Warmup
	}
	if p.Measure == 0 {
		p.Measure = d.Measure
	}
	return p
}

// at returns p at another line rate.
func (p Path) at(rate units.BitRate) Path {
	p.BottleneckRate = rate
	return p
}

// MeanRTT is the paper's RTT-bar: the centre of the station range.
func (p Path) MeanRTT() units.Duration {
	if p.RTTMax == 0 {
		return p.RTTMin
	}
	return (p.RTTMin + p.RTTMax) / 2
}

// BDP is the rule-of-thumb buffer MeanRTT x C, in whole packets.
func (p Path) BDP() int {
	return units.PacketsInFlight(p.BottleneckRate, p.MeanRTT(), p.SegmentSize)
}

// SqrtRule is the paper's buffer for n long-lived flows,
// MeanRTT x C / sqrt(n) in packets (see SqrtRuleBuffer).
func (p Path) SqrtRule(n int) int { return SqrtRuleBuffer(float64(p.BDP()), n) }

// sqrtRuleTimes is factor x the sqrt(n) rule, truncated and never below
// one packet. The rule is rounded to whole packets before it is scaled;
// the drivers that scale first (Fig. 10, the window distribution) keep
// their own expression, or their pinned tables would move by a packet.
func (p Path) sqrtRuleTimes(factor float64, n int) int {
	return max(1, int(factor*float64(p.SqrtRule(n))))
}
