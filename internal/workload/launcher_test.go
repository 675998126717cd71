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
	drv.Start(units.Epoch, units.Never)
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
	if _, completed, open := drv.Window(); completed != flows || open != 0 {
		t.Errorf("%d of %d receivers completed, %d open", completed, flows, open)
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

// TestLauncherCountsWindow: Window counts the flows launched in [from,
// to], both ends inclusive, and averages the completion times of those
// that have completed. A flow launched 1 ns outside either end does not
// count, and one still in flight counts as open and stays out of the
// mean.
func TestLauncherCountsWindow(t *testing.T) {
	from, to := units.Epoch.Add(units.Second), units.Epoch.Add(3*units.Second)
	specs := []FlowSpec{
		{Start: units.Second - 1, Size: 10},        // 1 ns before from
		{Start: units.Second, Size: 10},            // at from
		{Start: 2 * units.Second, Size: 1_000_000}, // in the window, still open at the end
		{Start: 3 * units.Second, Size: 20},        // at to
		{Start: 3*units.Second + 1, Size: 10},      // 1 ns after to
	}
	flows, drv := runTraceWindow(t, specs, from, to, units.Epoch.Add(10*units.Second))

	if flows[1].start != from || flows[3].start != to {
		t.Fatalf("flows launched at %v and %v, want the window's ends %v and %v", flows[1].start, flows[3].start, from, to)
	}
	for _, i := range []int{0, 1, 3, 4} {
		if flows[i].done == units.Never {
			t.Fatalf("flow %d never completed", i)
		}
	}
	if flows[2].done != units.Never {
		t.Fatal("the long flow completed; the case needs it in flight")
	}
	afct, completed, open := drv.Window()
	if completed != 2 || open != 1 {
		t.Errorf("completed=%d open=%d, want 2, 1", completed, open)
	}
	want := (flows[1].done.Sub(flows[1].start) + flows[3].done.Sub(flows[3].start)) / 2
	if afct != want {
		t.Errorf("afct = %v, want %v, the mean of the flows at from and at to", afct, want)
	}
}

// launched is one trace flow's launch time and its receiver's completion
// time (Never while in flight).
type launched struct {
	f           *topology.Flow
	start, done units.Time
}

// runTraceWindow launches specs from the epoch on a fresh dumbbell, with
// the driver counting the window [from, to], and runs the simulation to
// until. It returns each flow's launch and completion in launch order,
// looked at after every event (a finished flow's agents go to a later
// one, so they are read before), and the driver. Window must read zeros
// before the first event runs.
func runTraceWindow(t *testing.T, specs []FlowSpec, from, to, until units.Time) ([]*launched, Driver) {
	t.Helper()
	s, d, _ := testDumbbell(5, 200, 10*units.Mbps)
	var flows []*launched
	d.OnAddFlow = func(f *topology.Flow) { flows = append(flows, &launched{f: f, start: s.Now(), done: units.Never}) }
	drv := TraceSource{Flows: specs}.Bind(d, nil, tcp.Config{SegmentSize: 1000})
	drv.Start(from, to)
	if afct, completed, open := drv.Window(); afct != 0 || completed != 0 || open != 0 {
		t.Fatalf("Window before any launch = %v, %d, %d; want zeros", afct, completed, open)
	}
	for s.Now() < until && s.Step() {
		for _, fl := range flows {
			if fl.done == units.Never {
				fl.done = fl.f.Receiver.CompletedAt
			}
		}
	}
	if len(flows) != len(specs) {
		t.Fatalf("%d flows launched, want %d", len(flows), len(specs))
	}
	return flows, drv
}
