package link

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// sendAt is one offer of the schedule TestPipeMatchesLink replays.
type sendAt struct {
	at   units.Time
	size units.ByteSize
}

// offerer is the actor that replays a schedule: each event offers packet
// i, of the scheduled size, to every handler in turn.
type offerer struct {
	sends []sendAt
	to    []packet.Handler
}

func (o *offerer) OnEvent(_ int32, arg any) {
	i := arg.(int)
	for _, h := range o.to {
		h.Handle(mkpkt(int64(i), o.sends[i].size))
	}
}

// pipeSchedule draws n offers to a link of the given rate: random sizes,
// with each send at the previous send's instant (a burst), a random gap
// after it, exactly when the packets offered so far finish transmitting
// (a send that lands on a departure), or after an idle spell.
func pipeSchedule(rng *sim.RNG, n int, rate units.BitRate) []sendAt {
	sends := make([]sendAt, 0, n)
	var at, free units.Time
	for i := 0; i < n; i++ {
		size := units.ByteSize(40 + rng.Intn(1461))
		switch k := rng.Intn(8); {
		case i == 0, k < 3: // same instant
		case k < 5:
			at = at.Add(units.Duration(rng.Intn(3 * int(units.TransmissionTime(1500, rate)))))
		case k < 7:
			at = max(at, free)
		default:
			at = max(at, free).Add(units.Duration(rng.Intn(int(units.Millisecond))))
		}
		free = max(at, free).Add(units.TransmissionTime(size, rate))
		sends = append(sends, sendAt{at: at, size: size})
	}
	return sends
}

// TestPipeMatchesLink: a Pipe delivers every packet at exactly the time
// a Link over an unlimited drop-tail queue does. Both take the same
// offers on one scheduler — random sizes, same-instant bursts, sends that
// land exactly on a departure, idle gaps — at several rates and delays,
// zero delay included, and the arrival times at dst agree packet for
// packet. The pipe spends one kernel event per packet and never takes
// its lane's fallback.
func TestPipeMatchesLink(t *testing.T) {
	const n = 2000
	for ci, c := range []struct {
		rate  units.BitRate
		delay units.Duration
	}{
		{10 * units.Mbps, 5 * units.Millisecond},
		{100 * units.Mbps, 0},
		{1 * units.Gbps, 37 * units.Microsecond},
		{600 * units.Mbps, 60 * units.Millisecond},
	} {
		sends := pipeSchedule(sim.NewRNG(int64(ci+1)), n, c.rate)
		s := sim.NewScheduler()
		ref, got := &collector{sched: s}, &collector{sched: s}
		l := New("ref", s, c.rate, c.delay, queue.NewDropTail(queue.Limit{}), ref)
		p := NewPipe("pipe", s, c.rate, c.delay, got)
		aud := audit.New()
		l.SetAuditor(aud)
		p.SetAuditor(aud)
		reg := metrics.New()
		s.Instrument(reg)
		o := &offerer{sends: sends, to: []packet.Handler{l, p}}
		for i, sd := range sends {
			s.PostAt(sd.at, o, 0, i)
		}
		s.Run(units.Epoch.Add(100 * units.Second))
		if len(ref.pkts) != n || len(got.pkts) != n {
			t.Fatalf("case %d: link delivered %d, pipe %d; want %d each", ci, len(ref.pkts), len(got.pkts), n)
		}
		for i := range got.pkts {
			if got.pkts[i].Seq != ref.pkts[i].Seq || got.times[i] != ref.times[i] {
				t.Fatalf("case %d, arrival %d: pipe delivered seq %d at %v, link seq %d at %v",
					ci, i, got.pkts[i].Seq, got.times[i], ref.pkts[i].Seq, ref.times[i])
			}
		}
		// One event per offer and one per pipe packet; the link's
		// transmit-done and, unless it delivers at once (zero delay), its
		// arrival.
		linkEvents := 2
		if c.delay == 0 {
			linkEvents = 1
		}
		if want := uint64((2 + linkEvents) * n); s.Processed != want {
			t.Errorf("case %d: %d events, want %d", ci, s.Processed, want)
		}
		reg.Collect()
		if f := reg.Counter("sim.lane_fallbacks").Value(); f != 0 {
			t.Errorf("case %d: %d arrivals took the lane fallback", ci, f)
		}
		if aud.Count() != 0 {
			t.Errorf("case %d: %v", ci, aud.Err())
		}
	}
}
