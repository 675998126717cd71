package workload

import (
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// TestDelayedAckFlowsFinish: a delayed-ACK receiver may hold a flow's
// final ACK for up to 100 ms, longer than a station RTT after its last
// segment, so the launcher unwires a flow only once its sender has
// finished too. Every sender finishes, none times out after its receiver
// completed, every flow leaves the dumbbell, and a completion hook set on
// a sender still runs when the launcher waits for it. Unwired one station RTT
// after the last segment instead, 118 of these 231 senders never saw their
// final ACK and resent on RTO backoff to the end of the run: 898 timeouts.
func TestDelayedAckFlowsFinish(t *testing.T) {
	s, d, rng := testDumbbell(6, 100, 10*units.Mbps)
	var flows, finished, late, hooked int
	d.OnAddFlow = func(f *topology.Flow) {
		flows++
		snd, rcv := f.Sender, f.Receiver
		snd.OnComplete = func(units.Time) { hooked++ }
		var timeouts int64
		done := false
		snd.OnStateChange = func(units.Time) {
			if n := snd.Stats().Timeouts; n > timeouts {
				if rcv.CompletedAt != units.Never {
					late++
				}
				timeouts = n
			}
			if snd.Finished() && !done {
				done = true
				finished++
			}
		}
	}
	src := PoissonSource{Load: 0.3, Sizes: GeometricSize(9), TCP: tcp.Config{SegmentSize: 1000, DelayedAck: true}}
	drv := src.Bind(d, rng.Fork())
	drv.Start()
	s.Run(units.Epoch.Add(6 * units.Second))
	drv.Stop()
	s.Run(units.Epoch.Add(100 * units.Second))

	if flows < 200 {
		t.Fatalf("%d flows; the scenario should launch 231", flows)
	}
	for i, r := range drv.Records() {
		if r.Completed == units.Never {
			t.Errorf("flow %d's receiver never completed", i)
		}
	}
	if finished != flows {
		t.Errorf("%d of %d senders finished", finished, flows)
	}
	if hooked != flows {
		t.Errorf("%d of %d senders' completion hooks ran", hooked, flows)
	}
	if late != 0 {
		t.Errorf("%d timeouts after a receiver had completed, want 0", late)
	}
	if n := len(d.Flows()); n != 0 {
		t.Errorf("%d flows still wired after the drain", n)
	}
}
