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

// attached counts the flows whose receiver is still wired. A stray data
// segment is sent to every flow the dumbbell ever carried (flows, as
// OnAddFlow saw them), a few times over (the bottleneck may drop one): a
// wired receiver counts it as a duplicate, a detached flow's packets fall
// on the floor.
func attached(sched *sim.Scheduler, d *topology.Dumbbell, flows []*topology.Flow) int {
	before := make([]int64, len(flows))
	for i, f := range flows {
		before[i] = f.Receiver.DupSegments
	}
	for round := 0; round < 5; round++ {
		for _, f := range flows {
			d.NewRawFlow(f.Station).Forward.Handle(&packet.Packet{Flow: f.ID, Size: 40})
		}
		sched.Run(sched.Now().Add(units.Second))
	}
	n := 0
	for i, f := range flows {
		if f.Receiver.DupSegments > before[i] {
			n++
		}
	}
	return n
}

// TestDriverContract holds every Source to the one Driver contract.
func TestDriverContract(t *testing.T) {
	spec := tcp.Config{SegmentSize: 1000}
	sec := units.Second
	cases := []struct {
		name string
		src  workload.Source
		// finite sources launch finite flows and count each; remainder
		// is the long-lived population left when the source has drained.
		finite    bool
		remainder int
	}{
		{"poisson", workload.PoissonSource{Load: 0.3, Sizes: workload.GeometricSize(10), MaxWindow: 32}, true, 0},
		{"sessions", workload.SessionSource{
			Sessions: 5, Sizes: workload.FixedSize(10), MeanThink: 200 * units.Millisecond, MaxWindow: 32,
		}, true, 0},
		{"trace", workload.TraceSource{
			Flows:     []workload.FlowSpec{{Start: 0, Size: 10}, {Start: sec, Size: 30}, {Start: sec, Size: 5}, {Start: 4 * sec, Size: 12}},
			MaxWindow: 32,
		}, true, 0},
		{"profile", profile.Source{
			Profile: profile.Profile{
				Name:       "contract",
				Arrival:    profile.Curve{{T: 0, V: 10}, {T: 3 * sec, V: 30}},
				Population: profile.Curve{{T: 0, V: 3}, {T: 4 * sec, V: 1}},
			},
			Sizes: workload.FixedSize(8), MaxWindow: 32,
		}, true, 1},
		{"pulse", adversary.Pulse{Senders: 2, PeakRate: 5 * units.Mbps, Period: 200 * units.Millisecond, Duty: 0.5}, false, 0},
		{"aimdsync", adversary.SyncAIMD{N: 3}, false, 3},
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
			var flows []*topology.Flow
			d.OnAddFlow = func(f *topology.Flow) { flows = append(flows, f) }
			drv := c.src.Bind(d, rng.Fork(), spec)
			drv.Start(units.Epoch, units.Never)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("second Start did not panic")
					}
				}()
				drv.Start(units.Epoch, units.Never)
			}()

			sched.Run(units.Epoch.Add(6 * sec))
			drv.Stop()
			generated := drv.Generated()
			sched.Run(units.Epoch.Add(40 * sec)) // drain
			if got := drv.Generated(); got != generated {
				t.Errorf("launched %d flows after Stop", got-generated)
			}

			// The window is the whole run, so after the drain every flow
			// launched has completed: Generated is the completions plus
			// what is still active, the long-lived remainder.
			_, completed, open := drv.Window()
			if c.finite {
				if generated == 0 || int64(completed+drv.Active()-c.remainder) != generated || open != 0 {
					t.Errorf("Generated = %d, completed %d, Active %d, open %d; want Generated positive, completed + Active = Generated + %d and none open",
						generated, completed, drv.Active(), open, c.remainder)
				}
			} else if completed != 0 || open != 0 {
				t.Errorf("a source without finite flows counts %d completed, %d open", completed, open)
			}

			if got := drv.Active(); got != c.remainder {
				t.Errorf("Active = %d after the drain, want the long-lived remainder %d", got, c.remainder)
			}
			if got := len(d.Flows()); got != c.remainder {
				t.Errorf("the dumbbell still holds %d of %d flows, want %d: every detached flow leaves Flows()", got, len(flows), c.remainder)
			}
			if got := attached(sched, d, flows); got != c.remainder {
				t.Errorf("%d of %d flows still have a receiver attached, want %d: every finished flow is detached", got, len(flows), c.remainder)
			}
		})
	}
}
