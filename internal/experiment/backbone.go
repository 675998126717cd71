package experiment

import (
	"bufsim/internal/units"
)

// BackboneConfig reproduces the paper's §5.3 closing experiment: a 10 Gb/s
// Internet2 link run at 0.5% of its default one-second buffer showed "no
// measurable degradation in quality of service". Simulating 10 Gb/s
// packet-by-packet is wasteful for the same physics, so the default here
// is a 2.5 Gb/s (OC48-class) bottleneck with thousands of flows; the
// buffer is DefaultBufferFraction of a full second's worth of line rate,
// exactly the paper's framing ("5ms compared with the default of 1
// second").
type BackboneConfig struct {
	Seed int64

	N int
	// Path defaults to backbonePath.
	Path

	// BufferFraction scales the classical one-second buffer
	// (1s x C): the paper ran 0.005.
	BufferFraction float64

	// RunEnv: Metrics, Audit and Cache reach the one underlying run.
	RunEnv
}

// backbonePath is an OC48-class link with backbone-wide RTTs; thousands
// of flows settle fast, so the windows are short.
var backbonePath = Path{
	BottleneckRate:  units.OC48,
	BottleneckDelay: 5 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          10 * units.Second,
	Measure:         20 * units.Second,
}

func (c BackboneConfig) withDefaults() BackboneConfig {
	if c.N == 0 {
		c.N = 2500
	}
	c.Path = c.Path.or(backbonePath)
	if c.BufferFraction == 0 {
		c.BufferFraction = 0.005
	}
	return c
}

// BackboneResult summarizes the backbone run at two buffer sizes.
type BackboneResult struct {
	OneSecondBuffer int // packets: the "default" 1s x C
	SmallBuffer     int // packets: BufferFraction of the above
	SqrtRule        int // packets: RTT x C / sqrt(n), for reference

	Small LongLivedResult // measured with the small buffer
	// QoS indicators at the small buffer.
	UtilDegradation float64 // 1 - utilization
}

// RunBackbone executes the §5.3 scenario at the small buffer. (Running
// the full one-second buffer is pointless — it cannot do worse than 100%
// utilization and would only add seconds of queueing; the paper also only
// reports the small-buffer outcome.)
func RunBackbone(cfg BackboneConfig) BackboneResult {
	cfg = cfg.withDefaults()
	oneSec := units.PacketsInFlight(cfg.BottleneckRate, units.Second, cfg.SegmentSize)
	res := BackboneResult{
		OneSecondBuffer: oneSec,
		SmallBuffer:     int(float64(oneSec) * cfg.BufferFraction),
		SqrtRule:        cfg.SqrtRule(cfg.N),
	}
	res.Small = RunLongLived(LongLivedConfig{
		Seed: cfg.Seed, N: cfg.N, Path: cfg.Path,
		BufferPackets: res.SmallBuffer,
		RunEnv:        cfg.cell(cfg.Metrics),
	})
	res.UtilDegradation = 1 - res.Small.Utilization
	return res
}
