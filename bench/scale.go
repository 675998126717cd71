package main

import (
	"fmt"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// Scale mode (-scale) measures how the kernel carries growing flow
// populations:
//
//   - scale_long_lived/flows=F: one long-lived experiment with F flows.
//     The bottleneck rate grows with F so the per-flow fair share stays
//     constant — F is the only thing changing.
//   - slab_senders_1m: constructs 2^20 TCP senders from one sender
//     arena; bytes/op / 2^20 is the per-flow memory footprint of the
//     sender path.
//
// The gate checks only the counts (allocs/op, events/op); speed is
// judged with `make ab`.

// scaleFlows is the measured flows axis.
var scaleFlows = []int{30, 100, 300, 1000}

func scaleConfig(flows int) experiment.LongLivedConfig {
	return experiment.LongLivedConfig{
		Scenario:      experiment.Scenario{Seed: 1, Path: experiment.Path{BottleneckRate: units.BitRate(flows) * 2 * units.Mbps, Warmup: units.Second, Measure: 2 * units.Second}},
		N:             flows,
		BufferPackets: 25 + flows,
	}
}

// nullHandler swallows packets; the slab construction benchmark never
// runs the simulation, it only builds senders.
type nullHandler struct{}

func (nullHandler) Handle(*packet.Packet) {}

const slabRows = 1 << 20

// buildSlabSenders takes rows senders from one slab, returning the slab
// so the allocation cannot be optimized away.
func buildSlabSenders(rows int) *tcp.Slab {
	sched := sim.NewScheduler()
	sl := tcp.NewSlab(rows)
	var out nullHandler
	for i := 0; i < rows; i++ {
		tcp.NewSenderSlab(sl, tcp.Config{Flow: packet.FlowID(i + 1)}, sched, out)
	}
	return sl
}

func runScale(f *File) {
	for _, flows := range scaleFlows {
		name := fmt.Sprintf("scale_long_lived/flows=%d", flows)
		fmt.Println(name + "...")
		events := eventsProcessed(func(reg *metrics.Registry) {
			cfg := scaleConfig(flows)
			cfg.Metrics = reg
			experiment.RunLongLived(cfg)
		})
		r := fastestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiment.RunLongLived(scaleConfig(flows))
			}
		})
		f.Current.Benchmarks[name] = metric(r, events)
	}

	fmt.Println("slab_senders_1m...")
	var keep *tcp.Slab
	r := fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keep = buildSlabSenders(slabRows)
		}
	})
	_ = keep
	f.Current.Benchmarks["slab_senders_1m"] = metric(r, 0)
}
