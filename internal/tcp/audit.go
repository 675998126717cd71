package tcp

import (
	"fmt"

	"bufsim/internal/audit"
	"bufsim/internal/units"
)

// SetAuditor attaches an invariant checker to the sender: ACK bounds and
// cumulative-ACK monotonicity, window sanity (cwnd >= 1, new data never
// sent beyond the usable window), and completion accounting for finite
// flows. A nil auditor (the default) disables the checks.
func (s *Sender) SetAuditor(a *audit.Auditor) { s.aud = a }

// auditAck validates an incoming ACK before the sender acts on it: a
// cumulative ACK can never cover data that was never sent. The bound is
// the high-water mark of transmitted sequence numbers, not sndNxt — a
// timeout rewinds sndNxt to sndUna (go-back-N) while ACKs for the
// pre-rewind transmissions are still in flight.
func (s *Sender) auditAck(ack int64, now units.Time) {
	if ack > s.audMaxSeq {
		s.aud.Violationf(now, s.audName(), "ack-bounded",
			"ACK %d beyond highest transmitted segment %d", ack, s.audMaxSeq)
	}
	if ack < 0 {
		s.aud.Violationf(now, s.audName(), "ack-bounded", "negative ACK %d", ack)
	}
}

// auditState checks the sender's steady invariants after an ACK or
// timeout has been processed. The window invariants are phrased against
// the CongestionControl interface, so they hold for any controller:
// cwnd-driven variants must keep their window at one segment or more,
// and rate-driven variants must additionally produce a sane (non-
// negative) pacing interval whenever they are asked for one.
func (s *Sender) auditState(now units.Time) {
	if w := s.cc.Window(); w < 1 {
		s.aud.Violationf(now, s.audName(), "cwnd-floor", "cwnd %.3f < 1", w)
	}
	if s.cc.RateDriven() {
		if iv := s.cc.PaceInterval(s.sl.srtt[s.row]); iv < 0 {
			s.aud.Violationf(now, s.audName(), "pace-positive",
				"pacing interval %v < 0", iv)
		}
	}
	if s.sl.sndUna[s.row] < s.audUna {
		s.aud.Violationf(now, s.audName(), "cumack-monotone",
			"sndUna moved backwards: %d after %d", s.sl.sndUna[s.row], s.audUna)
	}
	s.audUna = s.sl.sndUna[s.row]
	// sndUna <= sndNxt does NOT hold here: after a timeout rewinds sndNxt
	// to sndUna (go-back-N), a late ACK for a pre-rewind transmission can
	// move sndUna past the rewound sndNxt. Both pointers are instead
	// bounded by the transmission high-water mark: nothing can be
	// acknowledged, and nothing can be "next", beyond what was ever sent.
	if s.sl.sndUna[s.row] > s.audMaxSeq {
		s.aud.Violationf(now, s.audName(), "seq-order",
			"sndUna %d beyond highest transmitted segment %d", s.sl.sndUna[s.row], s.audMaxSeq)
	}
	if s.sl.sndNxt[s.row] > s.audMaxSeq {
		s.aud.Violationf(now, s.audName(), "seq-order",
			"sndNxt %d beyond highest transmitted segment %d", s.sl.sndNxt[s.row], s.audMaxSeq)
	}
	if !s.longLived() && s.sl.sndNxt[s.row] > s.cfg.TotalSegments {
		s.aud.Violationf(now, s.audName(), "seq-bounded",
			"sndNxt %d beyond flow length %d", s.sl.sndNxt[s.row], s.cfg.TotalSegments)
	}
}

// auditSend observes every transmission: it maintains the high-water
// mark that bounds incoming ACKs, and checks that window-clocked sends
// respect the usable window — the enforceable form of "inflight <= cwnd"
// (after a window reduction, old outstanding data may exceed the
// shrunken window; explicit retransmissions of it must not be flagged).
func (s *Sender) auditSend(seq int64, isRetransmit bool, now units.Time) {
	if !isRetransmit && seq >= s.sl.sndUna[s.row]+s.UsableWindow() {
		s.aud.Violationf(now, s.audName(), "window-respected",
			"segment %d sent with sndUna %d and window %d", seq, s.sl.sndUna[s.row], s.UsableWindow())
	}
	if seq+1 > s.audMaxSeq {
		s.audMaxSeq = seq + 1
	}
}

// auditComplete checks the completion bookkeeping of a finite flow: the
// sender finishes exactly when every segment has been cumulatively
// acknowledged, which is what "every sent segment was eventually ACKed or
// retransmitted" reduces to under cumulative ACKs.
func (s *Sender) auditComplete(now units.Time) {
	if s.longLived() {
		return
	}
	if s.sl.sndUna[s.row] != s.cfg.TotalSegments {
		s.aud.Violationf(now, s.audName(), "completion",
			"completed with sndUna %d of %d segments acknowledged", s.sl.sndUna[s.row], s.cfg.TotalSegments)
	}
}

// audName is only evaluated when a violation actually fires (it appears
// solely inside Violationf call sites), so the formatting is cold.
func (s *Sender) audName() string { return fmt.Sprintf("tcp:sender:flow%d", s.cfg.Flow) }

// SetAuditor attaches an invariant checker to the receiver: cumulative
// reassembly-point monotonicity, out-of-order bookkeeping, and completion
// accounting for finite flows. A nil auditor disables the checks.
func (r *Receiver) SetAuditor(a *audit.Auditor) { r.aud = a }

// auditState checks the receiver's reassembly invariants after a segment
// has been processed.
func (r *Receiver) auditState(now units.Time) {
	comp := fmt.Sprintf("tcp:receiver:flow%d", r.cfg.Flow)
	if r.nextExpected < r.audNext {
		r.aud.Violationf(now, comp, "reassembly-monotone",
			"nextExpected moved backwards: %d after %d", r.nextExpected, r.audNext)
	}
	r.audNext = r.nextExpected
	if r.ooo.has(r.nextExpected) {
		r.aud.Violationf(now, comp, "reassembly-drain",
			"segment %d is buffered out-of-order but is the next expected", r.nextExpected)
	}
	if r.cfg.TotalSegments > 0 && r.nextExpected > r.cfg.TotalSegments {
		r.aud.Violationf(now, comp, "reassembly-bounded",
			"nextExpected %d beyond flow length %d", r.nextExpected, r.cfg.TotalSegments)
	}
	if r.finished && (r.ReceivedSegments != r.cfg.TotalSegments || len(r.ooo) != 0) {
		r.aud.Violationf(now, comp, "completion",
			"finished with %d of %d distinct segments and %d runs still out-of-order",
			r.ReceivedSegments, r.cfg.TotalSegments, len(r.ooo))
	}
}
