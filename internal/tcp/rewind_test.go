package tcp

import (
	"slices"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// tap records the segments a sender puts on it, and those it sends below
// sndUna: data the receiver has already acknowledged.
type tap struct {
	snd   *Sender
	sent  []int64
	below []int64
}

func (w *tap) Handle(p *packet.Packet) {
	if p.Seq < w.snd.sndUna {
		w.below = append(w.below, p.Seq)
	}
	w.sent = append(w.sent, p.Seq)
}

// lateAckAfterRewind scripts a Reno sender with no topology: it sends
// segments 0–9, its retransmission timer fires (go-back-N rewinds to 0
// and resends it), and then a cumulative ACK for 0–5, sent before the
// timeout, arrives. It returns the sender's tap, holding what it sent
// after that ACK, and the auditor that watched it.
func lateAckAfterRewind(t *testing.T) (*tap, *audit.Auditor) {
	sched := sim.NewScheduler()
	w := &tap{}
	w.snd = NewSender(Config{Flow: 1}, sched, w)
	aud := audit.New()
	w.snd.SetAuditor(aud)
	w.snd.CC().(*renoCC).cwnd = 10
	w.snd.Start()
	sched.Run(units.Epoch.Add(initialRTO + units.Millisecond))
	if want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0}; !slices.Equal(w.sent, want) {
		t.Fatalf("before the late ACK the sender sent %v, want %v", w.sent, want)
	}
	w.sent = w.sent[:0]
	w.snd.Handle(&packet.Packet{Flow: 1, Flags: packet.FlagACK, Ack: 6})
	return w, aud
}

// TestLateAckAfterRewindSkipsAckedData: an ACK that jumps past the
// rewound sndNxt raises it (ns-2's newack() raises t_seqno_), so nothing
// the receiver holds is sent again, and every resend below the high-water
// mark counts as a retransmission.
func TestLateAckAfterRewindSkipsAckedData(t *testing.T) {
	w, aud := lateAckAfterRewind(t)
	snd, sent := w.snd, w.sent
	if len(w.below) != 0 {
		t.Errorf("segments %v sent below sndUna", w.below)
	}
	if len(sent) == 0 || sent[0] < 6 {
		t.Fatalf("after ACK 6 the sender sent %v, want the first send >= 6", sent)
	}
	if o := snd.Outstanding(); o < 0 {
		t.Errorf("Outstanding() = %d after the late ACK", o)
	}
	// ssthresh 5 after the timeout: the window reopens to 5, so 6–9 are
	// resent and 10 is new.
	if want := []int64{6, 7, 8, 9, 10}; !slices.Equal(sent, want) {
		t.Errorf("after ACK 6 the sender sent %v, want %v", sent, want)
	}
	if got := snd.Stats().Retransmits; got != 5 {
		t.Errorf("Retransmits = %d, want 5 (segment 0 after the timeout, then 6–9)", got)
	}
	if aud.Count() != 0 {
		t.Errorf("audit: %v", aud.Err())
	}
}
