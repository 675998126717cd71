package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"bufsim/internal/units"
)

// Result is the uniform reporting surface every experiment outcome
// implements: Table renders the rows the way the paper presents them,
// and WriteJSON emits any of them for machines. cmd/paperexp and the
// public bufsim API render every outcome through this one interface
// instead of per-type switches.
type Result interface {
	// Table returns the human-readable rendering (a tab-aligned table or
	// short report, trailing newline included).
	Table() string
}

// Render writes res.Table() to w.
func Render(w io.Writer, res Result) error {
	_, err := io.WriteString(w, res.Table())
	return err
}

// WriteJSON writes res as indented JSON: its exported fields, or its
// jsonView where the result summarizes a payload too large to dump.
// (Not json.Marshaler: the run cache stores the full value.) Output is
// deterministic: struct fields emit in declaration order and
// encoding/json sorts map keys.
func WriteJSON(w io.Writer, res Result) error {
	var v any = res
	if s, ok := res.(interface{ jsonView() any }); ok {
		v = s.jsonView()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// tabulate renders fn's output through a tabwriter configured the way
// every table in this package is aligned.
func tabulate(fn func(tw *tabwriter.Writer)) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(tw)
	tw.Flush()
	return sb.String()
}

func roundMS(d units.Duration) string {
	return fmt.Sprintf("%.1fms", d.Milliseconds())
}

// UtilizationTable is the Fig. 10 dataset (and its RED ablation).
type UtilizationTable []UtilizationRow

// Table implements Result.
func (t UtilizationTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Flows\tBuffer\tPkts\tRAM\tModel\tSim")
		for _, r := range t {
			fmt.Fprintf(tw, "%d\t%.1fx\t%d\t%.1f Mbit\t%.1f%%\t%.1f%%\n",
				r.N, r.Factor, r.Packets, r.RAMMbit, 100*r.ModelUtil, 100*r.SimUtil)
		}
	})
}

// Table implements Result.
func (r MinBufferResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "BDP = %d packets\n", r.BDPPackets)
		fmt.Fprintln(tw, "Flows\tTarget\tMinBuffer\tRTTxC/sqrt(n)\tAchieved")
		for _, p := range r.Points {
			fmt.Fprintf(tw, "%d\t%.1f%%\t%d\t%d\t%.2f%%\n",
				p.N, 100*p.Target, p.MinBuffer, p.SqrtRule, 100*p.Achieved)
		}
	})
}

// ShortFlowBufferTable is the Fig. 8 dataset.
type ShortFlowBufferTable []ShortFlowBufferPoint

// Table implements Result.
func (t ShortFlowBufferTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Rate\tFlowLen\tMinBuffer\tModel(P=0.025)\tBaseAFCT\tAFCT@Min")
		for _, p := range t {
			fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f\t%v\t%v\n",
				p.Rate, p.FlowLen, p.MinBuffer, p.ModelBuffer,
				roundMS(p.BaselineAFCT), roundMS(p.AchievedAFCT))
		}
	})
}

// Table implements Result.
func (r AFCTComparisonResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "BDP = %d packets\n", r.BDPPackets)
		fmt.Fprintln(tw, "Buffer\tPkts\tAFCT\tUtil\tMeanQueue\tFlows")
		for _, o := range []AFCTOutcome{r.RuleThumb, r.SqrtRule} {
			fmt.Fprintf(tw, "%s\t%d\t%v\t%.1f%%\t%.0f\t%d\n",
				o.Label, o.BufferPackets, roundMS(o.AFCT), 100*o.Utilization, o.MeanQueue, o.Completed)
		}
	})
}

// Table implements Result.
func (o AFCTOutcome) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Buffer\tPkts\tAFCT\tUtil\tMeanQueue\tFlows")
		fmt.Fprintf(tw, "%s\t%d\t%v\t%.1f%%\t%.0f\t%d\n",
			o.Label, o.BufferPackets, roundMS(o.AFCT), 100*o.Utilization, o.MeanQueue, o.Completed)
	})
}

// ProductionTable is the Fig. 11 dataset.
type ProductionTable []ProductionRow

// Table implements Result.
func (t ProductionTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Buffer\tRTTxC/sqrt(n)\tUtil(sim)\tUtil(model)\tConcurrent\tAFCT")
		for _, r := range t {
			fmt.Fprintf(tw, "%d\t%.1fx\t%.2f%%\t%.2f%%\t%.0f\t%v\n",
				r.Buffer, r.SqrtRuleRatio, 100*r.Utilization, 100*r.ModelUtil,
				r.MeanConcurrent, roundMS(r.AFCT))
		}
	})
}

// SyncTable is the synchronization-ablation dataset.
type SyncTable []SyncPoint

// Table implements Result.
func (t SyncTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Flows\tSyncIndex\tKS\tAggMean\tAggStdDev")
		for _, p := range t {
			fmt.Fprintf(tw, "%d\t%.2f\t%.4f\t%.0f\t%.1f\n", p.N, p.SyncIndex, p.KS, p.Mean, p.StdDev)
		}
	})
}

// PacingTable is the pacing-ablation dataset.
type PacingTable []PacingPoint

// Table implements Result.
func (t PacingTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Buffer\tPkts\tUtil(unpaced)\tUtil(paced)")
		for _, p := range t {
			fmt.Fprintf(tw, "%.2fx\t%d\t%.2f%%\t%.2f%%\n",
				p.Factor, p.BufferPackets, 100*p.UtilUnpaced, 100*p.UtilPaced)
		}
	})
}

// SmoothingTable is the access-link smoothing dataset; TailAt records the
// occupancy threshold the tail probabilities were measured against.
type SmoothingTable struct {
	TailAt int
	Points []SmoothingPoint
}

// Table implements Result.
func (t SmoothingTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "P(Q >= %d):\n", t.TailAt)
		fmt.Fprintln(tw, "Access\tMeasured\tM/G/1 bound\tM/D/1 bound\tMeanQueue")
		for _, p := range t.Points {
			fmt.Fprintf(tw, "%.2gx\t%.4f\t%.4f\t%.4f\t%.1f\n",
				p.AccessRatio, p.TailProb, p.ModelMG1, p.ModelMD1, p.MeanQueue)
		}
	})
}

// VariantTable is the congestion-control-ablation dataset.
type VariantTable []VariantPoint

// Table implements Result.
func (t VariantTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Variant\tUtil\tLoss\tTimeouts\tRetransmits")
		for _, p := range t {
			fmt.Fprintf(tw, "%v\t%.2f%%\t%.2f%%\t%d\t%.2f%%\n",
				p.Variant, 100*p.Utilization, 100*p.LossRate, p.Timeouts, 100*p.Retransmit)
		}
	})
}

// RTTSpreadTable is the RTT-heterogeneity ablation dataset.
type RTTSpreadTable []RTTSpreadPoint

// Table implements Result.
func (t RTTSpreadTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "RTTSpread\tUtil\tSyncIndex")
		for _, p := range t {
			fmt.Fprintf(tw, "%v\t%.2f%%\t%.2f\n", p.Spread, 100*p.Utilization, p.SyncIndex)
		}
	})
}

// CoDelTable is the CoDel-vs-drop-tail comparison dataset.
type CoDelTable []CoDelRow

// Table implements Result.
func (t CoDelTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Design\tPkts\tUtil\tP99 delay\tLoss")
		for _, r := range t {
			fmt.Fprintf(tw, "%s\t%d\t%.2f%%\t%.1fms\t%.2f%%\n",
				r.Label, r.BufferPackets, 100*r.Utilization,
				r.QueueDelayP99.Milliseconds(), 100*r.LossRate)
		}
	})
}

// Table implements Result.
func (r HarpoonResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "closed-loop sessions; calibrated concurrent flows n = %d, RTTxC/sqrt(n) = %d pkts\n",
			r.CalibratedN, r.SqrtRule)
		fmt.Fprintln(tw, "Buffer\tPkts\tUtil\tActiveFlows\tTransfers")
		for _, row := range r.Rows {
			fmt.Fprintf(tw, "%.1fx\t%d\t%.2f%%\t%.0f\t%d\n",
				row.Factor, row.Buffer, 100*row.Utilization, row.MeanActive, row.Transfers)
		}
	})
}

// Table implements Result.
func (r BackboneResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "default 1s buffer: %d packets; running at %.1f%% of it = %d packets "+
		"(RTTxC/sqrt(n) = %d)\n",
		r.OneSecondBuffer, 100*float64(r.SmallBuffer)/float64(r.OneSecondBuffer),
		r.SmallBuffer, r.SqrtRule)
	fmt.Fprintf(&sb, "utilization %.2f%% (degradation %.2f%%), loss %.2f%%\n",
		100*r.Small.Utilization, 100*r.UtilDegradation, 100*r.Small.LossRate)
	fmt.Fprintf(&sb, "queueing delay: mean %v, P99 %v (vs up to 1s with the default buffer)\n",
		r.Small.QueueDelayMean, r.Small.QueueDelayP99)
	return sb.String()
}

// Table implements Result.
func (r MultiHopResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "two bottlenecks, %d flows per link, buffer %d pkts each (1x sqrt rule)\n",
		r.FlowsPerLink, r.BufferPackets)
	fmt.Fprintf(&sb, "hop 1: %.2f%% utilization, %.2f%% loss\n", 100*r.Util[0], 100*r.LossRate[0])
	fmt.Fprintf(&sb, "hop 2: %.2f%% utilization, %.2f%% loss\n", 100*r.Util[1], 100*r.LossRate[1])
	fmt.Fprintf(&sb, "two-bottleneck flows' share of hop 1: %.1f%% (fair share 50%%)\n",
		100*r.CrossingShare)
	return sb.String()
}

// Table implements Result.
func (r ECNResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RED buffer %d pkts, %d flows\n", r.BufferPackets, r.Drop.N)
	fmt.Fprintf(&sb, "RED drop: util %.2f%%, loss %.2f%%, timeouts %d\n",
		100*r.Drop.Utilization, 100*r.Drop.LossRate, r.Drop.Timeouts)
	fmt.Fprintf(&sb, "RED mark (ECN): util %.2f%%, loss %.2f%%, timeouts %d\n",
		100*r.Mark.Utilization, 100*r.Mark.LossRate, r.Mark.Timeouts)
	return sb.String()
}

// Table implements Result.
func (r LongLivedResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Flows\tBuffer\tUtil\tLoss\tMeanQueue\tRetrans\tTimeouts\tQDelayMean\tQDelayP99\tFairness")
		fmt.Fprintf(tw, "%d\t%d\t%.2f%%\t%.2f%%\t%.1f\t%.2f%%\t%d\t%v\t%v\t%.3f\n",
			r.N, r.BufferPackets, 100*r.Utilization, 100*r.LossRate, r.MeanQueue,
			100*r.RetransmitFraction, r.Timeouts,
			roundMS(r.QueueDelayMean), roundMS(r.QueueDelayP99), r.Fairness)
	})
}

// Table implements Result.
func (r ReplicatedResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Replicas\tMeanUtil\tStdDev\tMin\tMax")
		fmt.Fprintf(tw, "%d\t%.2f%%\t%.4f\t%.2f%%\t%.2f%%\n",
			r.Replicas, 100*r.MeanUtilization, r.StdDev, 100*r.Min, 100*r.Max)
	})
}

// Table implements Result.
func (r TraceResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Completed\tCensored\tAFCT\tUtil")
		fmt.Fprintf(tw, "%d\t%d\t%v\t%.2f%%\n",
			r.Completed, r.Censored, roundMS(r.AFCT), 100*r.Utilization)
	})
}

// Table implements Result.
func (r ProfileRunResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Util\tLoss\tMeanQ\tPeakQ\tMeanN\tPeakN\tLaunched\tAFCT\tCompleted\tCensored")
		fmt.Fprintf(tw, "%.2f%%\t%.2f%%\t%.1f\t%d\t%.1f\t%.0f\t%d\t%v\t%d\t%d\n",
			100*r.Utilization, 100*r.LossRate, r.MeanQueue, r.PeakQueue, r.MeanActive, r.PeakActive,
			r.Generated, roundMS(r.AFCT), r.Completed, r.Censored)
	})
}

// Table implements Result. The cwnd/queue time series are omitted — they
// are exported as CSV/SVG by cmd/paperexp instead.
func (r SingleFlowResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "BDP\tBuffer\tUtil\tMeanQueue\tMinQueue")
		fmt.Fprintf(tw, "%d\t%d\t%.2f%%\t%.1f\t%.0f\n",
			r.BDPPackets, r.BufferPackets, 100*r.Utilization, r.MeanQueue, r.MinQueueSeen)
	})
}

// jsonView is what WriteJSON emits: the sampled series are summarized by
// their lengths rather than dumped.
func (r SingleFlowResult) jsonView() any {
	return struct {
		BDPPackets    int
		BufferPackets int
		Utilization   float64
		MeanQueue     float64
		MinQueueSeen  float64
		CwndSamples   int
		QueueSamples  int
	}{r.BDPPackets, r.BufferPackets, r.Utilization, r.MeanQueue, r.MinQueueSeen,
		r.Cwnd.Len(), r.Queue.Len()}
}

// Table implements Result: the Fig. 6 histogram as ASCII.
func (r WindowDistResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d buffer=%d pkts: aggregate window mean=%.1f stddev=%.1f KS=%.4f\n",
		r.N, r.BufferPackets, r.Mean, r.StdDev, r.KS)
	max := int64(0)
	for i := 0; i < r.Histogram.NumBins(); i++ {
		if _, c := r.Histogram.Bin(i); c > max {
			max = c
		}
	}
	if max == 0 {
		return sb.String()
	}
	for i := 0; i < r.Histogram.NumBins(); i++ {
		center, count := r.Histogram.Bin(i)
		bar := int(40 * count / max)
		fmt.Fprintf(&sb, "%8.1f |%s\n", center, strings.Repeat("#", bar))
	}
	return sb.String()
}

// jsonView is what WriteJSON emits: the histogram flattened to (center,
// count) pairs; raw samples are omitted.
func (r WindowDistResult) jsonView() any {
	type bin struct {
		Center float64
		Count  int64
	}
	var bins []bin
	for i := 0; i < r.Histogram.NumBins(); i++ {
		center, count := r.Histogram.Bin(i)
		bins = append(bins, bin{center, count})
	}
	return struct {
		N             int
		BufferPackets int
		Mean          float64
		StdDev        float64
		KS            float64
		CLTSigmaRatio float64
		Bins          []bin
	}{r.N, r.BufferPackets, r.Mean, r.StdDev, r.KS, r.CLTSigmaRatio, bins}
}
