package probe_test

import (
	"math"
	"testing"

	"bufsim/internal/probe"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

const probeRate = 10 * units.Mbps

// ladder is the range of configured buffer limits (packets) the
// estimates are validated against; the acceptance bar is 15% but the
// probe should be exact against our own disciplines at these scales.
var ladder = []int{16, 32, 64, 128, 256, 512}

func relErr(estimated, configured int) float64 {
	return math.Abs(float64(estimated)-float64(configured)) / float64(configured)
}

func TestProbeDropTailPacketLimits(t *testing.T) {
	for _, limit := range ladder {
		q := queue.NewDropTail(queue.PacketLimit(limit))
		est, err := probe.Run(q, probe.Config{Rate: probeRate})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if est.Policy != probe.PolicyDropTail {
			t.Errorf("limit %d: policy = %v, want droptail (evidence: sojourn %.4f, early %.4f)",
				limit, est.Policy, est.SojournLossFraction, est.EarlyDropFraction)
		}
		if est.Mode != probe.PacketLimited {
			t.Errorf("limit %d: mode = %v, want packets (fill ratio %.2f)", limit, est.Mode, est.FillRatio)
		}
		if e := relErr(est.CapacityPackets, limit); e > 0.15 {
			t.Errorf("limit %d: estimated %d packets (%.0f%% off)", limit, est.CapacityPackets, 100*e)
		}
	}
}

func TestProbeDropTailByteLimits(t *testing.T) {
	// Byte limits both on and off packet-size multiples.
	for _, limitBytes := range []units.ByteSize{
		24_000, 96_000, 100_000, 384_000,
	} {
		q := queue.NewDropTail(queue.ByteLimit(limitBytes))
		est, err := probe.Run(q, probe.Config{Rate: probeRate})
		if err != nil {
			t.Fatalf("limit %v: %v", limitBytes, err)
		}
		if est.Policy != probe.PolicyDropTail {
			t.Errorf("limit %v: policy = %v, want droptail", limitBytes, est.Policy)
		}
		if est.Mode != probe.ByteLimited {
			t.Errorf("limit %v: mode = %v, want bytes (fill ratio %.2f)", limitBytes, est.Mode, est.FillRatio)
		}
		e := math.Abs(float64(est.CapacityBytes)-float64(limitBytes)) / float64(limitBytes)
		if e > 0.15 {
			t.Errorf("limit %v: estimated %v (%.0f%% off)", limitBytes, est.CapacityBytes, 100*e)
		}
	}
}

func TestProbeREDLadder(t *testing.T) {
	meanPkt := units.TransmissionTime(units.DefaultSegment, probeRate)
	for _, limit := range ladder {
		rng := sim.NewRNG(int64(limit))
		q := queue.NewRED(queue.DefaultRED(limit, meanPkt, rng.Float64))
		est, err := probe.Run(q, probe.Config{Rate: probeRate})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if est.Policy != probe.PolicyRED {
			t.Errorf("limit %d: policy = %v, want red (evidence: sojourn %.4f, early %.4f)",
				limit, est.Policy, est.SojournLossFraction, est.EarlyDropFraction)
		}
		if est.Mode != probe.PacketLimited {
			t.Errorf("limit %d: mode = %v, want packets (fill ratio %.2f)", limit, est.Mode, est.FillRatio)
		}
		if e := relErr(est.CapacityPackets, limit); e > 0.15 {
			t.Errorf("limit %d: estimated %d packets (%.0f%% off)", limit, est.CapacityPackets, 100*e)
		}
	}
}

func TestProbeCoDelLadder(t *testing.T) {
	for _, limit := range ladder {
		q := queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(limit)})
		est, err := probe.Run(q, probe.Config{Rate: probeRate})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if est.Policy != probe.PolicyCoDel {
			t.Errorf("limit %d: policy = %v, want codel (evidence: sojourn %.4f, early %.4f)",
				limit, est.Policy, est.SojournLossFraction, est.EarlyDropFraction)
		}
		if est.Mode != probe.PacketLimited {
			t.Errorf("limit %d: mode = %v, want packets (fill ratio %.2f)", limit, est.Mode, est.FillRatio)
		}
		if e := relErr(est.CapacityPackets, limit); e > 0.15 {
			t.Errorf("limit %d: estimated %d packets (%.0f%% off)", limit, est.CapacityPackets, 100*e)
		}
	}
}

func TestProbeUnlimitedQueue(t *testing.T) {
	q := queue.NewDropTail(queue.Limit{})
	if _, err := probe.Run(q, probe.Config{Rate: probeRate}); err == nil {
		t.Fatal("probe of an unlimited queue returned no error")
	}
}

func TestProbeRequiresRate(t *testing.T) {
	q := queue.NewDropTail(queue.PacketLimit(10))
	if _, err := probe.Run(q, probe.Config{}); err == nil {
		t.Fatal("probe without a rate returned no error")
	}
}

// TestProbeDeterministic pins that the probe consumes no hidden state:
// two runs against identically seeded queues produce identical
// estimates.
func TestProbeDeterministic(t *testing.T) {
	meanPkt := units.TransmissionTime(units.DefaultSegment, probeRate)
	estimate := func() probe.Estimate {
		rng := sim.NewRNG(42)
		q := queue.NewRED(queue.DefaultRED(64, meanPkt, rng.Float64))
		est, err := probe.Run(q, probe.Config{Rate: probeRate})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	if a, b := estimate(), estimate(); a != b {
		t.Errorf("probe not deterministic:\n%+v\n%+v", a, b)
	}
}
