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
// final ACK and resent on RTO backoff to the end of the run: about 900
// timeouts.
func TestDelayedAckFlowsFinish(t *testing.T) {
	s, d, rng := testDumbbell(6, 100, 10*units.Mbps)
	// live are the flows whose senders have not finished, each with its
	// sender's timeout count when last looked at.
	type watch struct {
		f        *topology.Flow
		timeouts int64
	}
	var live []watch
	var flows, finished, late, hooked int
	d.OnAddFlow = func(f *topology.Flow) {
		flows++
		f.Sender.OnComplete = func(units.Time) { hooked++ }
		live = append(live, watch{f: f})
	}
	// look runs after every event, as the flows' states change.
	look := func() {
		kept := live[:0]
		for _, w := range live {
			snd := w.f.Sender
			if n := snd.Stats().Timeouts; n > w.timeouts {
				if w.f.Receiver.CompletedAt != units.Never {
					late++
				}
				w.timeouts = n
			}
			if snd.Finished() {
				finished++
				continue
			}
			kept = append(kept, w)
		}
		live = kept
	}
	src := PoissonSource{Load: 0.3, Sizes: GeometricSize(9)}
	drv := src.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000, DelayedAck: true})
	drv.Start()
	for s.Now() < units.Epoch.Add(6*units.Second) && s.Step() {
		look()
	}
	drv.Stop()
	for s.Now() < units.Epoch.Add(100*units.Second) && s.Step() {
		look()
	}

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
