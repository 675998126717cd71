package main

import (
	"fmt"
	"testing"

	"bufsim"
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
//   - scale_churn/measure=W: the repository benchmark's churn_red_sack
//     run with a W window. The 24 s window launches ~13 000 more short
//     flows than the 6 s one with the same ~600 alive at once, so the
//     two cells' allocs/op differ by what a flow launched allocates
//     beyond the flows alive: nothing once the spare agents, flows and
//     launcher records are warm.
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

// churnWindows is the churn cells' window axis.
var churnWindows = []bufsim.Duration{6 * bufsim.Second, 24 * bufsim.Second}

// churnRun is the repository benchmark's churn_red_sack run, bufsim
// -rate 100Mbps -flows 50 -workload constant -red -variant sack -warmup
// 1s, with a measure-long window, under reg (nil: no telemetry).
func churnRun(measure bufsim.Duration, reg *metrics.Registry) {
	s := bufsim.Scenario{Seed: 1, Link: bufsim.Link{Rate: 100 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond}, BufferPackets: 177,
		Warmup: bufsim.Second, Measure: measure, RED: true, Sender: bufsim.Sender{Variant: bufsim.Sack}}
	sizes := bufsim.FixedSize(14)
	w, err := bufsim.ProfileWorkload(bufsim.ConstantProfile.Profile().ScaleTo(bufsim.ArrivalRate(0.85, s.Link, sizes), 50), sizes, 0)
	if err == nil {
		_, err = bufsim.Run(s, bufsim.Generated{Workload: w}, bufsim.WithMetrics(reg))
	}
	if err != nil {
		panic(err)
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

	for _, measure := range churnWindows {
		name := fmt.Sprintf("scale_churn/measure=%v", measure)
		fmt.Println(name + "...")
		events := eventsProcessed(func(reg *metrics.Registry) { churnRun(measure, reg) })
		r := fastestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				churnRun(measure, nil)
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
