package sim

import (
	"testing"

	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

// TestTimerKeepsItsEntry: a timer pushed 100 ahead on every tick, 10
// apart, as a TCP sender restarts its RTO on every ACK, keeps one heap
// entry and fires once, at its last deadline; its stale entry is
// re-keyed each time it reaches the root, which is counted in
// sim.timer_rekeys and not in Processed. A Reset to an earlier key fires there, and Stop leaves
// nothing pending.
func TestTimerKeepsItsEntry(t *testing.T) {
	s := NewScheduler()
	reg := metrics.New()
	s.Instrument(reg)
	var fired []units.Time
	tm := s.NewTimer(call(func() { fired = append(fired, s.Now()) }), 0)
	var tick func()
	ticks := 0
	tick = func() {
		if ticks++; ticks <= 100 {
			tm.ResetAfter(100)
			fnAfter(s, 10, tick)
		}
	}
	fnAt(s, 0, tick)
	s.Run(2000)
	reg.Collect()
	if len(fired) != 1 || fired[0] != 1090 || s.MaxPending() != 2 || s.Processed != 102 {
		t.Errorf("fired at %v, MaxPending %d, Processed %d; want once at 1090, 2 and 102", fired, s.MaxPending(), s.Processed)
	}
	if n := reg.Counter("sim.timer_rekeys").Value(); n != 11 {
		t.Errorf("sim.timer_rekeys = %d, want 11: the entry surfaces once a deadline, every nine ticks", n)
	}

	fired = nil
	tm.Reset(3000)
	tm.Reset(2500) // earlier: moves up
	fnAt(s, 2500, func() { fired = append(fired, -1) })
	if err := s.VerifyInvariants(&tm); err != nil {
		t.Fatal(err)
	}
	s.Run(4000)
	if len(fired) != 2 || fired[0] != 2500 || fired[1] != -1 {
		t.Errorf("after an earlier Reset fired %v, want [2500 -1]: the timer at 2500, ahead of the later post", fired)
	}
	tm.ResetAfter(5)
	tm.Stop()
	if tm.Active() || s.Pending() != 0 || s.VerifyInvariants(&tm) != nil {
		t.Errorf("a stopped timer: Active %v, Pending %d", tm.Active(), s.Pending())
	}
}
