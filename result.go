package bufsim

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"bufsim/internal/experiment"
)

// Result is the uniform reporting surface of every simulation outcome:
// Table renders it as an aligned plain-text table, and WriteJSON dumps
// any of them for machines. All Simulate* return types implement it, so
// callers can render any outcome through one code path:
//
//	res := bufsim.Simulate(cfg)
//	fmt.Print(res.Table())
//	bufsim.WriteJSON(f, res)
type Result = experiment.Result

var _ = []Result{
	SimulationResult{},
	ReplicatedResult{},
	SingleFlowResult{},
	ShortFlowResult{},
	MixResult{},
	TraceResult{},
	ProfileResult{},
	AdversaryResult{},
	Memory{},
}

// WriteJSON writes res as indented JSON: its exported fields, or its
// jsonView where the result elides a payload too large to dump.
func WriteJSON(w io.Writer, res Result) error {
	var v any = res
	if s, ok := res.(interface{ jsonView() any }); ok {
		v = s.jsonView()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func tabulate(fn func(*tabwriter.Writer)) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(tw)
	tw.Flush()
	return sb.String()
}

// Table implements Result.
func (r SimulationResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "utilization\t%.4f\n", r.Utilization)
		fmt.Fprintf(tw, "loss rate\t%.5f\n", r.LossRate)
		fmt.Fprintf(tw, "mean queue (pkts)\t%.1f\n", r.MeanQueuePackets)
		fmt.Fprintf(tw, "retransmit fraction\t%.5f\n", r.RetransmitFraction)
		fmt.Fprintf(tw, "timeouts\t%d\n", r.Timeouts)
		fmt.Fprintf(tw, "queue delay mean\t%v\n", r.QueueDelayMean)
		fmt.Fprintf(tw, "queue delay p99\t%v\n", r.QueueDelayP99)
		fmt.Fprintf(tw, "fairness\t%.4f\n", r.Fairness)
	})
}

// Table implements Result. The cwnd and queue series are summarized by
// their sample counts; plot them from the slices directly.
func (r SingleFlowResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "BDP (pkts)\t%d\n", r.BDPPackets)
		fmt.Fprintf(tw, "buffer (pkts)\t%d\n", r.BufferPackets)
		fmt.Fprintf(tw, "utilization\t%.4f\n", r.Utilization)
		fmt.Fprintf(tw, "mean queue (pkts)\t%.1f\n", r.MeanQueue)
		fmt.Fprintf(tw, "min queue seen (pkts)\t%.0f\n", r.MinQueueSeen)
		fmt.Fprintf(tw, "cwnd samples\t%d\n", len(r.CwndValues))
		fmt.Fprintf(tw, "queue samples\t%d\n", len(r.QueueValues))
	})
}

// jsonView is what WriteJSON emits: the time series are elided — only
// summary scalars and sample counts are written.
func (r SingleFlowResult) jsonView() any {
	return struct {
		BDPPackets    int
		BufferPackets int
		Utilization   float64
		MeanQueue     float64
		MinQueueSeen  float64
		CwndSamples   int
		QueueSamples  int
	}{r.BDPPackets, r.BufferPackets, r.Utilization, r.MeanQueue,
		r.MinQueueSeen, len(r.CwndValues), len(r.QueueValues)}
}

// Table implements Result.
func (r ShortFlowResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "AFCT\t%v\n", r.AFCT)
		fmt.Fprintf(tw, "completed\t%d\n", r.Completed)
		fmt.Fprintf(tw, "censored\t%d\n", r.Censored)
	})
}

// Table implements Result.
func (r MixResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "AFCT\t%v\n", r.AFCT)
		fmt.Fprintf(tw, "shorts completed\t%d\n", r.ShortsCompleted)
		fmt.Fprintf(tw, "utilization\t%.4f\n", r.Utilization)
		fmt.Fprintf(tw, "mean queue (pkts)\t%.1f\n", r.MeanQueue)
	})
}

// Table implements Result.
func (r AdversaryResult) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "buffer (pkts)\t%d\n", r.BufferPackets)
		fmt.Fprintf(tw, "utilization\t%.4f\n", r.Utilization)
		fmt.Fprintf(tw, "loss rate\t%.5f\n", r.LossRate)
		fmt.Fprintf(tw, "mean queue (pkts)\t%.1f\n", r.MeanQueuePackets)
		fmt.Fprintf(tw, "peak queue (pkts)\t%d\n", r.PeakQueuePackets)
		fmt.Fprintf(tw, "sync index\t%.2f\n", r.SyncIndex)
	})
}

// Table implements Result.
func (m Memory) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintf(tw, "SRAM chips (36 Mbit)\t%d\n", m.SRAMChips)
		fmt.Fprintf(tw, "DRAM chips (1 Gbit)\t%d\n", m.DRAMChips)
		fmt.Fprintf(tw, "DRAM keeps up\t%v\n", m.DRAMKeepsUp)
		fmt.Fprintf(tw, "fits on chip\t%v\n", m.FitsOnChip)
		fmt.Fprintf(tw, "verdict\t%s\n", m.Description)
	})
}
