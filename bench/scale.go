package main

import (
	"fmt"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// Scale mode (-scale) measures how the kernel carries growing flow
// populations and how the sharded execution engine prices in:
//
//   - scale_long_lived/flows=F/shards=S: one long-lived experiment with
//     F flows on S event shards. The bottleneck rate grows with F so the
//     per-flow fair share stays constant — F is the only thing changing.
//     Sharded and unsharded cells compute bit-identical results (the
//     equivalence harness pins that), so the cells differ purely in
//     execution cost.
//   - scale_fabric/planes=P: P disjoint dumbbell planes on P shards
//     sharing one scheduler — the embarrassingly-parallel end of the
//     sharding spectrum.
//   - slab_senders_1m: constructs 2^20 TCP senders from one sender
//     arena; bytes/op / 2^20 is the per-flow memory footprint of the
//     sender path.
//
// The shard curve is honest about the machine it ran on: the recorded
// GOMAXPROCS is the "cores" axis, and on a single-core runner shards>1
// measures pure engine overhead (windows, barriers, frontier merges),
// not speedup. The gate checks only the counts (allocs/op, events/op);
// speed is judged with `make ab`.

// scaleFlows x scaleShards is the measured grid. Shard counts above
// flows+1 are capped by the topology, so small-F/large-S cells collapse
// into their capped neighbours; they stay in the grid to price the cap
// path too.
var (
	scaleFlows  = []int{30, 100, 300, 1000}
	scaleShards = []int{1, 2, 4, 8}
)

func scaleConfig(flows, shards int) experiment.LongLivedConfig {
	return experiment.LongLivedConfig{
		Seed:          1,
		N:             flows,
		Path:          experiment.Path{BottleneckRate: units.BitRate(flows) * 2 * units.Mbps, Warmup: units.Second, Measure: 2 * units.Second},
		BufferPackets: 25 + flows,
		RunEnv:        experiment.RunEnv{Shards: shards},
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

// fabricRun builds planes disjoint dumbbell planes on one scheduler
// (one shard each), one long-lived flow per station, and runs them.
func fabricRun(planes, stationsPerPlane int, reg *metrics.Registry) {
	sched := sim.NewScheduler()
	if reg != nil {
		sched.Instrument(reg)
	}
	f := topology.NewFabric(topology.FabricConfig{
		Sched:  sched,
		RNG:    sim.NewRNG(1),
		Planes: planes,
		Plane: topology.Config{
			BottleneckRate:  20 * units.Mbps,
			BottleneckDelay: 10 * units.Millisecond,
			Buffer:          queue.PacketLimit(60),
			Stations:        stationsPerPlane,
			RTTMin:          80 * units.Millisecond,
			RTTMax:          160 * units.Millisecond,
		},
	})
	for k := 0; k < f.Planes(); k++ {
		d := f.Plane(k)
		for i := 0; i < d.NumStations(); i++ {
			d.AddFlow(d.Station(i), tcp.Config{SegmentSize: 1000 * units.Byte}).Sender.Start()
		}
	}
	sched.Run(units.Epoch.Add(3 * units.Second))
}

func runScale(f *File) {
	for _, flows := range scaleFlows {
		for _, shards := range scaleShards {
			name := fmt.Sprintf("scale_long_lived/flows=%d/shards=%d", flows, shards)
			fmt.Println(name + "...")
			events := eventsProcessed(func(reg *metrics.Registry) {
				cfg := scaleConfig(flows, shards)
				cfg.Metrics = reg
				experiment.RunLongLived(cfg)
			})
			r := fastestOf(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					experiment.RunLongLived(scaleConfig(flows, shards))
				}
			})
			f.Current.Benchmarks[name] = metric(r, events)
		}
	}

	const planes, perPlane = 4, 64
	name := fmt.Sprintf("scale_fabric/planes=%d", planes)
	fmt.Println(name + "...")
	fabricEvents := eventsProcessed(func(reg *metrics.Registry) {
		fabricRun(planes, perPlane, reg)
	})
	r := fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fabricRun(planes, perPlane, nil)
		}
	})
	f.Current.Benchmarks[name] = metric(r, fabricEvents)

	fmt.Println("slab_senders_1m...")
	var keep *tcp.Slab
	r = fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keep = buildSlabSenders(slabRows)
		}
	})
	_ = keep
	f.Current.Benchmarks["slab_senders_1m"] = metric(r, 0)
}
