package bufsim

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"bufsim/internal/experiment"
)

// Result is the uniform reporting surface of every simulation outcome:
// Table renders it as an aligned plain-text table, and WriteJSON dumps
// any of them for machines, so one code path renders any outcome.
type Result = experiment.Result

// The results Run returns, one per traffic kind. Each is the experiment
// layer's own result, which its Table and the run cache already read.
type (
	SimulationResult = experiment.LongLivedResult  // LongLived
	ReplicatedResult = experiment.ReplicatedResult // Replicated
	SingleFlowResult = experiment.SingleFlowResult // SingleFlow: with the Cwnd and Queue series (times in seconds)
	MixResult        = experiment.AFCTOutcome      // Mix: the short flows' AFCT beside the bottleneck's view
	TraceResult      = experiment.TraceResult      // Trace: Utilization from first arrival to the end of the drain
	ProfileResult    = experiment.ProfileRunResult // Generated: the bottleneck's view and the workload's n(t) and AFCT
	AdversaryResult  = experiment.AdversarialRow   // Adversary: the failure-mode table's row for this buffer
)

// WriteJSON writes res as indented JSON: its exported fields, or a
// summary where the result carries a payload too large to dump (the
// single-flow series are written as sample counts).
func WriteJSON(w io.Writer, res Result) error { return experiment.WriteJSON(w, res) }

// Table implements Result.
func (m Memory) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "SRAM chips (36 Mbit)\t%d\n", m.SRAMChips)
	fmt.Fprintf(tw, "DRAM chips (1 Gbit)\t%d\n", m.DRAMChips)
	fmt.Fprintf(tw, "DRAM keeps up\t%v\n", m.DRAMKeepsUp)
	fmt.Fprintf(tw, "fits on chip\t%v\n", m.FitsOnChip)
	fmt.Fprintf(tw, "verdict\t%s\n", m.Description)
	tw.Flush()
	return sb.String()
}
