// Package model implements the paper's analytical results: the classical
// rule-of-thumb, the sqrt(n) rule for desynchronized long flows (§3), the
// Gaussian aggregate-window utilization bound, and the effective-bandwidth
// / M/G/1 queue model for short slow-start flows (§4).
//
// All buffer quantities are expressed in packets (fixed-size segments),
// matching the paper's tables; helpers convert from line rate and RTT.
package model

import (
	"fmt"
	"math"
	"sort"

	"bufsim/internal/stats"
	"bufsim/internal/units"
)

// RuleOfThumbPackets returns the classical B = RTT x C buffer in packets:
// the §2 result for a single long-lived flow.
func RuleOfThumbPackets(rtt units.Duration, c units.BitRate, segment units.ByteSize) int {
	return units.PacketsInFlight(c, rtt, segment)
}

// SqrtRulePackets returns the paper's B = RTT x C / sqrt(n) buffer in
// packets for n desynchronized long-lived flows (§3). n must be positive.
func SqrtRulePackets(rtt units.Duration, c units.BitRate, segment units.ByteSize, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("model: SqrtRulePackets with n=%d", n))
	}
	bdp := float64(units.PacketsInFlight(c, rtt, segment))
	return int(math.Round(bdp / math.Sqrt(float64(n))))
}

// BufferReduction returns the fractional buffer saving of the sqrt(n) rule
// versus the rule-of-thumb: 1 - 1/sqrt(n). For the paper's 10,000-flow
// example this is 0.99 ("could reduce its buffers by 99%").
func BufferReduction(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("model: BufferReduction with n=%d", n))
	}
	return 1 - 1/math.Sqrt(float64(n))
}

// LongFlowGaussian is the §3 aggregate-window model for n desynchronized
// long-lived flows sharing a bottleneck whose bandwidth-delay product is
// BDP packets (2*Tp*C) and whose buffer is B packets.
//
// Each Reno flow's window follows a sawtooth between Wmax/2 and Wmax, so
// it is approximately uniform with standard deviation W̄/sqrt(27). The sum
// of n independent such windows is approximately Normal (central limit
// theorem; the paper's Fig. 6). In equilibrium the total outstanding data
// equals BDP plus the queue, so we take
//
//	mean  μ = BDP + B/2          (queue centred mid-buffer)
//	sdev  σ = (BDP + B) / (sqrt(27) * sqrt(n))
//
// The link goes idle when W < BDP; the throughput lost is the expected
// shortfall E[(BDP − W)+] spread over the pipe.
//
// This is our re-derivation of the technical report's bound; it matches
// the published model's shape (near-zero loss at B = BDP/sqrt(n), improving
// with n) though not its exact decimals — see DESIGN.md.
type LongFlowGaussian struct {
	N   int     // concurrent long-lived flows
	BDP float64 // bandwidth-delay product 2*Tp*C, in packets
}

// Sigma returns the model's aggregate-window standard deviation for buffer
// bufferPkts.
func (m LongFlowGaussian) Sigma(bufferPkts float64) float64 {
	if m.N <= 0 || m.BDP <= 0 {
		panic(fmt.Sprintf("model: bad LongFlowGaussian %+v", m))
	}
	return (m.BDP + bufferPkts) / (math.Sqrt(27) * math.Sqrt(float64(m.N)))
}

// Utilization returns the model's predicted link utilization with a buffer
// of bufferPkts packets, in [0,1].
func (m LongFlowGaussian) Utilization(bufferPkts float64) float64 {
	sigma := m.Sigma(bufferPkts)
	z := (bufferPkts / 2) / sigma
	// E[(BDP - W)+] for W ~ N(BDP + B/2, sigma):
	// shortfall = sigma*phi(z) - (mu-BDP)*(1-Phi(z)), with mu-BDP = B/2.
	phi := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	shortfall := sigma*phi - (bufferPkts/2)*(1-stats.NormalCDF(z))
	u := 1 - shortfall/m.BDP
	return math.Max(0, math.Min(1, u))
}

// BufferForUtilization returns the smallest buffer (packets) whose modeled
// utilization reaches target, by bisection. target must be in (0,1).
func (m LongFlowGaussian) BufferForUtilization(target float64) float64 {
	if target <= 0 || target >= 1 {
		panic(fmt.Sprintf("model: target utilization %v out of (0,1)", target))
	}
	if m.Utilization(0) >= target {
		return 0 // even a bufferless link meets the target under this model
	}
	lo, hi := 0.0, m.BDP*4
	if m.Utilization(hi) < target {
		return hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if m.Utilization(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// --- Short flows (§4) ---

// BurstMoments describes the first two moments of the slow-start burst
// size distribution X for an arriving traffic mix. The short-flow buffer
// bound depends on the mix only through these moments.
type BurstMoments struct {
	EX  float64 // E[X], mean burst size in packets
	EX2 float64 // E[X^2]
}

// SlowStartBursts returns the burst sizes (packets per RTT) a flow of
// flowLen segments emits in slow start with the given initial window and
// receive-window cap: iw, 2*iw, 4*iw, ... up to maxWindow, with a
// final partial burst. This is the §4 "first sends two packets, then
// four, eight, sixteen" pattern.
func SlowStartBursts(flowLen int64, iw, maxWindow int) []int64 {
	if flowLen <= 0 {
		return nil
	}
	if iw <= 0 {
		iw = 2
	}
	if maxWindow <= 0 {
		maxWindow = 1 << 30
	}
	var bursts []int64
	remaining := flowLen
	b := int64(iw)
	for remaining > 0 {
		if b > int64(maxWindow) {
			b = int64(maxWindow)
		}
		if b > remaining {
			b = remaining
		}
		bursts = append(bursts, b)
		remaining -= b
		b *= 2
	}
	return bursts
}

// MomentsForFlowLength returns the burst moments for a traffic mix where
// every flow carries exactly flowLen segments.
func MomentsForFlowLength(flowLen int64, iw, maxWindow int) BurstMoments {
	return MomentsForDistribution(map[int64]float64{flowLen: 1}, iw, maxWindow)
}

// MomentsForDistribution returns the burst moments for a discrete flow
// length distribution: lengths[L] is the probability of a flow of L
// segments. Bursts from all flows are pooled, weighted by how many bursts
// each flow length produces.
func MomentsForDistribution(lengths map[int64]float64, iw, maxWindow int) BurstMoments {
	// Accumulate in sorted key order: float rounding depends on summation
	// order, and map iteration would make these moments (and everything
	// derived from them) differ between identical runs.
	keys := make([]int64, 0, len(lengths))
	for flowLen := range lengths {
		keys = append(keys, flowLen)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var wsum, sum, sum2 float64
	for _, flowLen := range keys {
		p := lengths[flowLen]
		if p <= 0 {
			continue
		}
		for _, b := range SlowStartBursts(flowLen, iw, maxWindow) {
			fb := float64(b)
			wsum += p
			sum += p * fb
			sum2 += p * fb * fb
		}
	}
	if wsum == 0 {
		return BurstMoments{}
	}
	return BurstMoments{EX: sum / wsum, EX2: sum2 / wsum}
}

// QueueTail returns the §4 effective-bandwidth bound on the queue-length
// distribution for short-flow traffic at load rho with burst moments m:
//
//	P(Q >= b) = exp(-b * 2(1-rho)/rho * E[X]/E[X^2])
//
// which upper-bounds the drop probability of a buffer of b packets.
func (m BurstMoments) QueueTail(rho float64, b float64) float64 {
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("model: load %v out of (0,1)", rho))
	}
	if m.EX <= 0 || m.EX2 <= 0 {
		panic("model: burst moments not set")
	}
	return math.Exp(-b * 2 * (1 - rho) / rho * m.EX / m.EX2)
}

// MinBuffer returns the smallest buffer (packets) keeping the §4 bound on
// drop probability at or below pDrop:
//
//	B = rho/(2(1-rho)) * E[X^2]/E[X] * ln(1/pDrop)
//
// The key property the paper stresses: the result depends only on the load
// and the burst moments — not on the line rate, RTT or flow count.
func (m BurstMoments) MinBuffer(rho, pDrop float64) float64 {
	if pDrop <= 0 || pDrop >= 1 {
		panic(fmt.Sprintf("model: pDrop %v out of (0,1)", pDrop))
	}
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("model: load %v out of (0,1)", rho))
	}
	return rho / (2 * (1 - rho)) * m.EX2 / m.EX * math.Log(1/pDrop)
}

// MD1QueueTail is the M/D/1 special case (X_i = 1) the paper gives for
// fully smoothed, per-packet-Poisson arrivals from slow access links:
// P(Q >= b) = exp(-b * 2(1-rho)/rho).
func MD1QueueTail(rho, b float64) float64 {
	return BurstMoments{EX: 1, EX2: 1}.QueueTail(rho, b)
}

// --- TCP steady-state relations (§5.1.1) ---

// LossForWindow returns the §5.1.1 approximation of the loss rate of a TCP
// flow with average window W: l = 0.76 / W^2 (Morris 2000).
func LossForWindow(w float64) float64 {
	if w <= 0 {
		panic(fmt.Sprintf("model: window %v must be positive", w))
	}
	return 0.76 / (w * w)
}

// WindowForLoss inverts LossForWindow.
func WindowForLoss(l float64) float64 {
	if l <= 0 {
		panic(fmt.Sprintf("model: loss %v must be positive", l))
	}
	return math.Sqrt(0.76 / l)
}

// Throughput returns TCP's R = W/RTT sending rate for a window of w
// segments of the given size.
func Throughput(w float64, segment units.ByteSize, rtt units.Duration) units.BitRate {
	if rtt <= 0 {
		panic("model: non-positive RTT")
	}
	bitsPerRTT := w * float64(segment.Bits())
	return units.BitRate(math.Round(bitsPerRTT / rtt.Seconds()))
}
