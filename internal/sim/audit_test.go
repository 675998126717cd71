package sim

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/units"
)

// TestKernelCleanUnderAudit runs a busy schedule — zero-duration events,
// same-instant bursts, cancels of live and stale handles, reschedules,
// heavy slot recycling — with the auditor attached, and requires zero
// violations plus a structurally sound kernel at every step.
func TestKernelCleanUnderAudit(t *testing.T) {
	aud := audit.New()
	s := NewScheduler()
	s.SetAuditor(aud)
	verify := func() {
		t.Helper()
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// Zero-duration events: fire at the current instant, in FIFO order.
	var order []int
	fnAt(s, 10, func() {
		fnAfter(s, 0, func() { order = append(order, 1) })
		fnAfter(s, 0, func() { order = append(order, 2) })
	})
	s.Run(20)
	verify()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("zero-duration events fired as %v, want [1 2]", order)
	}

	// Stale handles: cancel after fire, cancel after recycle, reschedule
	// a stale handle — all while the auditor watches the heap/slot links.
	e1 := fnAt(s, 30, func() {})
	s.Run(40)
	s.Cancel(e1)
	fired := false
	e2 := fnAt(s, 50, func() { fired = true })
	s.Cancel(e1) // stale again, e2 likely occupies e1's slot
	verify()
	if !s.Active(e2) {
		t.Fatal("stale cancel killed a live event")
	}
	e3 := reschedule(s, e1, 60, func() {})
	verify()
	s.Run(70)
	verify()
	if !fired || s.Active(e3) {
		t.Fatalf("fired=%v active(e3)=%v after run", fired, s.Active(e3))
	}

	// Churn: interleaved schedule/cancel across many recycles.
	var handles []Event
	for i := 0; i < 200; i++ {
		handles = append(handles, fnAt(s, units.Time(100+i%7), func() {}))
		if i%3 == 0 {
			s.Cancel(handles[i/2])
		}
	}
	verify()
	s.Run(200)
	verify()
	if aud.Count() != 0 {
		t.Fatalf("kernel audit violations: %v", aud.Err())
	}
}

// fuzzActor is the handler behind every event FuzzSchedulerInvariants
// schedules. The event's argument is a byte saying what the handler does
// when it runs, so the fuzzer reaches the paths only a handler can: pushes
// while the firing root is still a hole, children that land before the
// root, cancels with a pop deferred, Stop in mid-run.
type fuzzActor struct {
	s       *Scheduler
	handles []Event
}

func (a *fuzzActor) OnEvent(_ int32, arg any) { a.react(arg.(byte)) }

func (a *fuzzActor) react(c byte) {
	d := units.Duration(c & 0x0f)
	if c&0x10 != 0 { // a typed child d ticks out, itself inert
		a.handles = append(a.handles, a.s.PostAfter(d, a, 0, byte(0)))
	}
	if c&0x20 != 0 { // a closure child at half the distance, which has a child of its own
		a.handles = append(a.handles, fnAfter(a.s, d/2, func() { a.react(0x10 | c&0x03) }))
	}
	if c&0x40 != 0 && len(a.handles) > 0 {
		a.s.Cancel(a.handles[int(c&0x0f)%len(a.handles)])
	}
	if c&0x80 != 0 {
		a.s.Stop()
	}
}

// FuzzSchedulerInvariants decodes an arbitrary byte stream into kernel
// operations (schedule closure/typed/lane, cancel, step, run), each
// scheduled event carrying what its handler will do (fuzzActor), and checks
// the full structural invariant set — heap, slots, lanes — after
// every operation, with the auditor attached throughout.
func FuzzSchedulerInvariants(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x41, 0x02, 0x83, 0x00, 0xc1, 0x07})
	f.Add([]byte("schedule, cancel, step, repeat"))
	f.Add([]byte{0x60, 0x00, 0x64, 0x00, 0x61, 0x00, 0x62, 0x00, 0xc1, 0x00, 0x60, 0x00, 0xc3, 0x00})
	// A backlog, then handlers that post before the root, cancel and stop.
	f.Add([]byte{0x3f, 0x00, 0x3e, 0x00, 0x3d, 0x00, 0x3c, 0x00, 0x3b, 0x00, 0x3a, 0x00, 0x45, 0x11, 0x46, 0x3f,
		0x02, 0x52, 0x03, 0xb3, 0xc9, 0x00, 0xc9, 0x00, 0xc0, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		aud := audit.New()
		s := NewScheduler()
		s.SetAuditor(aud)
		a := &fuzzActor{s: s}
		lanes := [2]*Lane{s.NewLane(a, 0), s.NewLane(a, 1)}
		for i := 0; i+1 < len(data); i += 2 {
			op, b, c := data[i]>>6, data[i]&0x3f, data[i+1]
			switch op {
			case 0: // schedule a closure event b ticks out
				a.handles = append(a.handles, fnAfter(s, units.Duration(b), func() { a.react(c) }))
			case 1: // typed event b ticks out: plain, or (upper half) on lane b&1
				if b < 32 {
					a.handles = append(a.handles, s.PostAfter(units.Duration(b), a, int32(b), c))
				} else {
					lanes[b&1].PostAfter(units.Duration(b-32)/2, c)
				}
			case 2: // cancel an arbitrary handle (live, fired, or recycled)
				if len(a.handles) > 0 {
					s.Cancel(a.handles[int(b)%len(a.handles)])
				}
			case 3: // advance: either one step or a bounded run
				if b%2 == 0 {
					s.Step()
				} else {
					s.Run(s.Now() + units.Time(b))
				}
			}
			if err := s.VerifyInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
		}
		for s.Pending() > 0 { // a handler's Stop ends a Run early
			s.Run(s.Now() + 1000)
		}
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		if aud.Count() != 0 {
			t.Fatalf("audit violations: %v", aud.Err())
		}
	})
}
