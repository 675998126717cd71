package workload_test

import (
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// attached counts the flows whose receiver is still wired to its host. A
// stray data segment is sent to every flow the dumbbell ever carried, a
// few times over (the bottleneck may drop one): a wired receiver counts
// it as a duplicate, a detached flow's packets fall on the floor.
func attached(sched *sim.Scheduler, d *topology.Dumbbell) int {
	before := make([]int64, len(d.Flows()))
	for i, f := range d.Flows() {
		before[i] = f.Receiver.DupSegments
	}
	for round := 0; round < 5; round++ {
		for _, f := range d.Flows() {
			raw := d.NewRawFlow(f.Station)
			raw.Forward.Handle(&packet.Packet{Flow: f.ID, Src: raw.Src, Dst: raw.Dst, Size: 40})
		}
		sched.Run(sched.Now().Add(units.Second))
	}
	n := 0
	for i, f := range d.Flows() {
		if f.Receiver.DupSegments > before[i] {
			n++
		}
	}
	return n
}

// TestDriverContract holds every Source to the one Driver contract.
func TestDriverContract(t *testing.T) {
	short := tcp.Config{SegmentSize: 1000, MaxWindow: 32}
	sec := units.Second
	cases := []struct {
		name string
		src  workload.Source
		// finite sources launch finite flows and record each; remainder
		// is the long-lived population left when the source has drained.
		finite    bool
		remainder int
	}{
		{"poisson", workload.PoissonSource{Load: 0.3, Sizes: workload.GeometricSize(10), TCP: short}, true, 0},
		{"sessions", workload.SessionSource{
			Sessions: 5, Sizes: workload.FixedSize(10), MeanThink: 200 * units.Millisecond, TCP: short,
		}, true, 0},
		{"trace", workload.TraceSource{
			Flows: []workload.FlowSpec{{Start: 0, Size: 10}, {Start: sec, Size: 30}, {Start: sec, Size: 5}, {Start: 4 * sec, Size: 12}},
			TCP:   short,
		}, true, 0},
		{"profile", profile.Source{
			Profile: profile.Profile{
				Name:       "contract",
				Arrival:    profile.Curve{{T: 0, V: 10}, {T: 3 * sec, V: 30}},
				Population: profile.Curve{{T: 0, V: 3}, {T: 4 * sec, V: 1}},
			},
			Sizes: workload.FixedSize(8), TCP: short, LongTCP: tcp.Config{SegmentSize: 1000},
		}, true, 1},
		{"pulse", adversary.Pulse{Senders: 2, PeakRate: 5 * units.Mbps, Period: 200 * units.Millisecond, Duty: 0.5}, false, 0},
		{"aimdsync", adversary.SyncAIMD{N: 3, TCP: tcp.Config{SegmentSize: 1000}}, false, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched, rng := sim.NewScheduler(), sim.NewRNG(11)
			d := topology.NewDumbbell(topology.Config{
				Sched: sched, RNG: rng.Fork(), Stations: 6,
				BottleneckRate: 10 * units.Mbps, BottleneckDelay: 5 * units.Millisecond,
				Buffer: queue.PacketLimit(100),
				RTTMin: 40 * units.Millisecond, RTTMax: 120 * units.Millisecond,
			})
			drv := c.src.Bind(d, rng.Fork())
			drv.Start()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("second Start did not panic")
					}
				}()
				drv.Start()
			}()

			sched.Run(units.Epoch.Add(6 * sec))
			drv.Stop()
			generated := drv.Generated()
			sched.Run(units.Epoch.Add(40 * sec)) // drain
			if got := drv.Generated(); got != generated {
				t.Errorf("launched %d flows after Stop", got-generated)
			}

			recs := drv.Records()
			if c.finite {
				if generated == 0 || int64(len(recs)) != generated {
					t.Errorf("Generated = %d, Records = %d; want equal and positive", generated, len(recs))
				}
			} else if recs != nil {
				t.Errorf("a source without finite flows has %d records", len(recs))
			}
			for i, r := range recs {
				if i > 0 && r.Start < recs[i-1].Start {
					t.Errorf("record %d starts at %v, before record %d (%v): not launch order", i, r.Start, i-1, recs[i-1].Start)
				}
				if r.Completed == units.Never {
					t.Errorf("record %d never completed", i)
				}
			}

			if got := drv.Active(); got != c.remainder {
				t.Errorf("Active = %d after the drain, want the long-lived remainder %d", got, c.remainder)
			}
			if got := attached(sched, d); got != c.remainder {
				t.Errorf("%d of %d flows still have a receiver attached, want %d: every finished flow is detached", got, len(d.Flows()), c.remainder)
			}
		})
	}
}
