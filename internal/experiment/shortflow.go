package experiment

import (
	"fmt"
	"math"

	"bufsim/internal/model"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// ShortFlowBufferConfig reproduces Fig. 8: the minimum buffer that keeps
// the average flow completion time within AFCTFactor of the
// infinite-buffer AFCT, for short-flow-only traffic at a fixed load across
// several line rates. The paper's model curve is the M/G/1 bound at
// P(Q > B) = 0.025.
type ShortFlowBufferConfig struct {
	Seed int64

	Rates    []units.BitRate // paper: 40, 80, 200 Mb/s
	Load     float64         // paper: 0.8
	FlowLens []int64         // flow length(s) in segments

	MaxWindow int // receiver cap; paper cites 12-43
	// Path defaults to shortFlowPath. BottleneckRate is not read: Rates
	// sweeps it.
	Path
	Stations int

	// AFCTFactor is the degradation budget (paper: 1.125 = +12.5%).
	AFCTFactor float64
	// ModelDropProb is the model curve's P(Q > B) (paper: 0.025).
	ModelDropProb float64

	// RunEnv: every probe the bisection makes (baseline and each step)
	// is cached and audited. With Metrics set, once a point's bisection
	// settles it is re-run at its MinBuffer with a child registry, merged
	// in under a "rate=...,len=..." prefix; the re-run is separate from
	// the searched runs, so the reported points are identical with
	// Metrics nil or set.
	RunEnv
}

func (c ShortFlowBufferConfig) withDefaults() ShortFlowBufferConfig {
	if len(c.Rates) == 0 {
		c.Rates = []units.BitRate{40 * units.Mbps, 80 * units.Mbps, 200 * units.Mbps}
	}
	if c.Load == 0 {
		c.Load = 0.8
	}
	if len(c.FlowLens) == 0 {
		c.FlowLens = []int64{14}
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	c.Path = c.Path.or(shortFlowPath)
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.AFCTFactor == 0 {
		c.AFCTFactor = 1.125
	}
	if c.ModelDropProb == 0 {
		c.ModelDropProb = 0.025
	}
	return c
}

// ShortFlowBufferPoint is one (rate, flow length) result.
type ShortFlowBufferPoint struct {
	Rate    units.BitRate
	FlowLen int64

	// BaselineAFCT is the infinite-buffer AFCT.
	BaselineAFCT units.Duration
	// MinBuffer is the smallest probed buffer with
	// AFCT <= AFCTFactor * BaselineAFCT.
	MinBuffer int
	// AchievedAFCT is the AFCT at MinBuffer.
	AchievedAFCT units.Duration
	// ModelBuffer is the paper's M/G/1 bound at ModelDropProb.
	ModelBuffer float64
}

// shortFlowAFCT runs one Fig. 8 probe: the profile scenario under a
// stationary Poisson source of fixed-length flows at the sweep's load,
// the bottleneck at one rate and buffer (0: unlimited, the baseline). It
// returns the AFCT over the window.
func shortFlowAFCT(cfg ShortFlowBufferConfig, env RunEnv, rate units.BitRate, flowLen int64, buffer int) units.Duration {
	return RunProfile(ProfileRunConfig{
		Seed:          cfg.Seed,
		Path:          cfg.Path.at(rate),
		BufferPackets: buffer,
		Source: workload.PoissonSource{
			Load:  cfg.Load,
			Sizes: workload.FixedSize(flowLen),
			TCP:   tcp.Config{SegmentSize: cfg.SegmentSize, MaxWindow: cfg.MaxWindow},
		},
		Stations: cfg.Stations,
		RunEnv:   env,
	}).AFCT
}

// RunShortFlowBuffer executes the Fig. 8 experiment. Points (rate x flow
// length) run in parallel; the bisection within a point is inherently
// sequential.
func RunShortFlowBuffer(cfg ShortFlowBufferConfig) ShortFlowBufferTable {
	cfg = cfg.withDefaults()
	// Grid point k is (rate, flow length), rate-major.
	at := func(k int) (units.BitRate, int64) {
		return cfg.Rates[k/len(cfg.FlowLens)], cfg.FlowLens[k%len(cfg.FlowLens)]
	}
	label := func(k int) string {
		rate, flowLen := at(k)
		return fmt.Sprintf("rate=%s,len=%d", rate, flowLen)
	}
	return sweepLabelled("short-flow-buffer", cfg, cfg.RunEnv, label, len(cfg.Rates)*len(cfg.FlowLens), func(k int, cell RunEnv) ShortFlowBufferPoint {
		rate, flowLen := at(k)
		moments := model.MomentsForFlowLength(flowLen, 2, cfg.MaxWindow)
		modelBuf := moments.MinBuffer(cfg.Load, cfg.ModelDropProb)

		// The searched runs never see the cell's registry, so the point is
		// byte-identical with telemetry on or off.
		quiet := cell.cell(nil)
		afctAt := func(b int) units.Duration { return shortFlowAFCT(cfg, quiet, rate, flowLen, b) }
		baseline := afctAt(0)
		budget := units.Duration(float64(baseline) * cfg.AFCTFactor)

		// Bisect on the buffer size; AFCT decreases with buffer.
		lo := 1
		hi, aHi := lo, afctAt(lo)
		if aHi > budget {
			hi = int(math.Max(modelBuf*4, 64))
			aHi = afctAt(hi)
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if a := afctAt(mid); a <= budget {
					hi, aHi = mid, a
				} else {
					lo = mid
				}
			}
		}
		if cell.Metrics != nil {
			// Telemetry pass: one more run, at the buffer the search settled on.
			shortFlowAFCT(cfg, cell, rate, flowLen, hi)
		}
		return ShortFlowBufferPoint{
			Rate: rate, FlowLen: flowLen,
			BaselineAFCT: baseline, ModelBuffer: modelBuf,
			MinBuffer: hi, AchievedAFCT: aHi,
		}
	})
}
