package experiment

import (
	"fmt"
	"math"
	"sort"
)

// MinBufferConfig reproduces Fig. 7: the minimum buffer required to reach
// a set of utilization targets, as a function of the number of long-lived
// flows, compared against the RTTxC/sqrt(n) rule.
type MinBufferConfig struct {
	// Scenario: the path defaults to tablePath (paper: ~80 ms average
	// RTT).
	Scenario

	Ns      []int     // flow counts to sweep
	Targets []float64 // utilization targets, e.g. 0.98, 0.995, 0.999

	// LadderPoints is how many buffer sizes are probed per n
	// (log-spaced between 1 packet and ~4x the sqrt rule).
	LadderPoints int

	// RunEnv: every ladder probe is cached and audited.
	RunEnv
}

func (c MinBufferConfig) withDefaults() MinBufferConfig {
	c.Path = c.Path.or(tablePath)
	if len(c.Ns) == 0 {
		c.Ns = []int{50, 100, 200, 300, 400, 500}
	}
	if len(c.Targets) == 0 {
		c.Targets = []float64{0.98, 0.995, 0.999}
	}
	if c.LadderPoints == 0 {
		c.LadderPoints = 10
	}
	return c
}

// MinBufferPoint is one (n, target) result.
type MinBufferPoint struct {
	N         int
	Target    float64
	MinBuffer int // packets; smallest ladder point meeting the target
	// SqrtRule is RTTxC/sqrt(n) in packets, the paper's model line.
	SqrtRule int
	// Achieved is the utilization measured at MinBuffer.
	Achieved float64
}

// LadderSample is one measured (buffer, utilization) probe, exposed so the
// whole curve can be reported.
type LadderSample struct {
	N           int
	Buffer      int
	Utilization float64
}

// MinBufferResult is the Fig. 7 dataset.
type MinBufferResult struct {
	Points []MinBufferPoint
	Ladder []LadderSample
	// BDPPackets is mean-RTT x C in packets.
	BDPPackets int
}

// RunMinBufferSweep executes the Fig. 7 sweep. For each n it measures
// utilization at a log-spaced ladder of buffer sizes (one simulation per
// rung) and reports, per target, the smallest rung that reached it.
func RunMinBufferSweep(cfg MinBufferConfig) MinBufferResult {
	cfg = cfg.withDefaults()
	res := MinBufferResult{BDPPackets: cfg.BDP()}

	// Flatten every (n, ladder rung) probe into one work list so the
	// orchestrator sweeps and caches them uniformly.
	type probe struct {
		nIdx, rung int
		buffer     int
	}
	ladders := make([][]int, len(cfg.Ns))
	var probes []probe
	for ni, n := range cfg.Ns {
		ladders[ni] = bufferLadder(cfg.SqrtRule(n), cfg.LadderPoints)
		for i, b := range ladders[ni] {
			probes = append(probes, probe{nIdx: ni, rung: i, buffer: b})
		}
	}
	label := func(k int) string { return fmt.Sprintf("n=%d,buffer=%d", cfg.Ns[probes[k].nIdx], probes[k].buffer) }
	utils := sweep("min-buffer", cfg.RunEnv, label, len(probes), func(k int, cell RunEnv) float64 {
		p := probes[k]
		n := cfg.Ns[p.nIdx]
		run := LongLivedConfig{Scenario: cfg.Scenario, N: n, BufferPackets: p.buffer, RunEnv: cell}
		run.Seed += int64(n)*1000 + int64(p.rung)
		return RunLongLived(run).Utilization
	})
	for ni, n := range cfg.Ns {
		sqrtRule := cfg.SqrtRule(n)
		ladder := ladders[ni]
		// The probes are n-major, so n's rungs are one run of utils.
		nUtils := utils[:len(ladder)]
		utils = utils[len(ladder):]
		for i, b := range ladder {
			res.Ladder = append(res.Ladder, LadderSample{N: n, Buffer: b, Utilization: nUtils[i]})
		}
		for _, target := range cfg.Targets {
			point := MinBufferPoint{N: n, Target: target, SqrtRule: sqrtRule, MinBuffer: ladder[len(ladder)-1]}
			point.Achieved = nUtils[len(nUtils)-1]
			for i, u := range nUtils {
				if u >= target {
					point.MinBuffer = ladder[i]
					point.Achieved = u
					break
				}
			}
			res.Points = append(res.Points, point)
		}
	}
	return res
}

// bufferLadder returns log-spaced buffer sizes bracketing the sqrt rule:
// from ~sqrtRule/8 up to 4x sqrtRule, deduplicated and sorted.
func bufferLadder(sqrtRule, points int) []int {
	if points < 2 {
		points = 2
	}
	lo := math.Max(1, float64(sqrtRule)/8)
	hi := 4 * float64(sqrtRule)
	if hi < lo+1 {
		hi = lo + 1
	}
	seen := make(map[int]bool)
	var out []int
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		b := int(math.Round(lo * math.Pow(hi/lo, f)))
		if b < 1 {
			b = 1
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}
