// Package tcp implements the TCP congestion-control dynamics the paper's
// theory is about: slow start, AIMD congestion avoidance, fast retransmit
// and fast recovery (Reno, with Tahoe, NewReno and SACK variants for
// ablation), CUBIC and a BBRv1-style rate-based controller for the
// updated buffer-sizing theory, retransmission timeouts with RFC
// 6298-style RTT estimation, cumulative ACKs and optional delayed ACKs.
//
// Congestion control is pluggable: the Sender owns connection mechanics
// (sequence state, RTT estimation, timers, go-back-N, pacing dispatch)
// and delegates policy to a CongestionControl selected by Config.Variant
// — see cc.go for the hook contract and variant.go for the registry.
//
// Windows and sequence numbers are counted in fixed-size segments, exactly
// as the paper presents them ("we will count window size in packets for
// simplicity of presentation"). A flow is either long-lived (infinite
// data, the §2–3 model) or carries a finite number of segments (the §4
// short-flow model, which never leaves slow start for small sizes).
package tcp

import (
	"fmt"

	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// Config parameterizes one flow's sender and receiver.
type Config struct {
	Flow packet.FlowID

	// SegmentSize is the wire size of a full data segment in bytes.
	SegmentSize units.ByteSize

	// TotalSegments is the flow length; 0 or negative means long-lived
	// (infinite data).
	TotalSegments int64

	// MaxWindow caps the congestion window (the receiver's advertised
	// window). The paper's short-flow analysis leans on typical caps of
	// 12–43 packets; long-flow experiments set it large enough not to
	// bind.
	MaxWindow int

	Variant Variant

	// DelayedAck enables acknowledgement of every second segment with a
	// 100 ms delayed-ACK timer, as most receivers do today.
	DelayedAck bool

	// Paced spreads new-data transmissions one inter-send interval
	// (SRTT / window) apart instead of bursting on each ACK. The paper's
	// technical report proposes pacing as the remedy when tiny buffers
	// meet few or window-limited flows; the pacing ablation experiments
	// use this switch. Rate-driven variants (BBR) pace regardless.
	// Retransmissions are never paced.
	Paced bool

	// ECN marks data packets ECN-capable and halves the window (at most
	// once per round trip) when the receiver echoes a congestion mark —
	// RFC 3168 simplified to per-packet ECE echo. Pair with a RED queue
	// configured with MarkECN.
	ECN bool
}

// Fixed sender constants: a pure ACK's wire size (TCP/IP header, no
// options), the slow-start initial window (the paper's flows "first send
// out two packets"), and the bounds of the retransmission timer.
const (
	ackSize     = 40 * units.Byte
	initialCwnd = 2
	minRTO      = 200 * units.Millisecond
	initialRTO  = units.Second
	maxRTO      = 60 * units.Second
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 1 << 20 // effectively unbounded
	}
	return c
}

// Stats accumulates per-flow counters.
type Stats struct {
	SegmentsSent    int64 // data segments put on the wire, incl. retransmissions
	Retransmits     int64 // segments sent again, go-back-N resends included
	Timeouts        int64
	FastRecoveries  int64
	AcksReceived    int64
	DupAcksReceived int64
	ECNReductions   int64

	Started   units.Time // first data segment transmission
	Completed units.Time // all data acked (sender view); units.Never if not done
}

// Sender is the TCP source. Create with NewSender and call Start. The
// sender implements the connection mechanics; congestion-control policy
// lives in its CongestionControl (see cc.go).
type Sender struct {
	cfg   Config
	sched *sim.Scheduler
	out   packet.Handler // the access link toward the network

	cc CongestionControl

	// sndUna <= sndNxt <= sndMax always: a timeout rewinds sndNxt to
	// sndUna (go-back-N) and an ACK raises it, so every send below sndMax
	// is a retransmission.
	sndUna int64 // lowest unacknowledged segment
	sndNxt int64 // next segment to send
	sndMax int64 // one past the highest segment ever sent
	rttSeq int64 // segment being timed; -1 if none

	// The RFC 6298 RTT estimator, and the send times it and pacing read.
	srtt      units.Duration
	rttvar    units.Duration
	rto       units.Duration
	rttSentAt units.Time
	lastSend  units.Time

	// dupAcks counts consecutive duplicate ACKs toward fast retransmit;
	// every new ACK clears it. SACK recovery lives through partial ACKs
	// and does not read the count until it exits.
	dupAcks int32
	backoff int32 // RTO exponential-backoff shift

	started  bool
	finished bool
	haveSRTT bool

	rtoTimer  sim.Timer
	paceTimer sim.Timer

	// pool is where segments come from and ACKs go back to (see SetPool);
	// nil means plain allocation.
	pool *packet.Pool

	// aud, when non-nil, receives invariant violations (see SetAuditor in
	// audit.go); audUna is the auditor's high-water mark of sndUna.
	aud    *audit.Auditor
	audUna int64

	// tel is the Telemetry tracking the sender, if any: it samples the
	// window after every ACK and timeout, and takes the sender's counters
	// when the sender is renewed (see Renew).
	tel *Telemetry

	stats Stats

	// OnComplete fires once when the final segment is cumulatively
	// acknowledged (finite flows only).
	OnComplete func(now units.Time)
}

// Sender event opcodes (see sim.Actor). OpStart is exported so workload
// generators can schedule a deferred Sender.Start through the kernel's
// typed-event path — sched.PostAt(at, snd, tcp.OpStart, nil) — instead of
// capturing the sender in a closure.
const (
	opSenderRTO int32 = iota
	opSenderPace
	OpStart
)

// OnEvent implements sim.Actor: the sender's timers are kernel timers
// embedded in it, so arming one allocates nothing.
func (s *Sender) OnEvent(op int32, _ any) {
	switch op {
	case opSenderRTO:
		s.onTimeout()
	case opSenderPace:
		s.paceFire()
	case OpStart:
		s.Start()
	}
}

// NewSender returns a sender writing packets to out. Callers wiring many
// flows take them from a Slab with NewSenderSlab instead.
func NewSender(cfg Config, sched *sim.Scheduler, out packet.Handler) *Sender {
	return new(Sender).init(cfg, sched, out)
}

// NewSenderSlab is NewSender with the sender's memory taken from sl.
func NewSenderSlab(sl *Slab, cfg Config, sched *sim.Scheduler, out packet.Handler) *Sender {
	return sl.next().init(cfg, sched, out)
}

// Renew makes a quiescent sender (see Quiescent) the sender of a new
// flow: afterwards it is exactly what NewSender(cfg, sched, out) returns,
// except that its controller's slices keep their capacity when the
// variant is unchanged. A Telemetry tracking the sender first folds its
// counters into the totals. Renewing a sender that is not quiescent
// panics: a timer of its old flow would fire into the new one.
func (s *Sender) Renew(cfg Config, sched *sim.Scheduler, out packet.Handler) *Sender {
	if !s.Quiescent() {
		panic(fmt.Sprintf("tcp: renewing flow %d's sender, which is not quiescent", s.cfg.Flow))
	}
	if s.tel != nil {
		s.tel.retire(s)
	}
	return s.init(cfg, sched, out)
}

// Quiescent reports whether the sender has finished and has no timer
// armed, so nothing in the kernel refers to it any more.
func (s *Sender) Quiescent() bool {
	return s.finished && !s.rtoTimer.Active() && !s.paceTimer.Active()
}

// init sets s up from scratch, keeping only its controller's memory (see
// Renew), and returns it.
func (s *Sender) init(cfg Config, sched *sim.Scheduler, out packet.Handler) *Sender {
	cc := s.cc
	cfg = cfg.withDefaults()
	*s = Sender{
		cfg:    cfg,
		sched:  sched,
		out:    out,
		rttSeq: -1,
		rto:    initialRTO,
		stats:  Stats{Completed: units.Never},
	}
	s.rtoTimer = sched.NewTimer(s, opSenderRTO)
	s.paceTimer = sched.NewTimer(s, opSenderPace)
	s.cc = cfg.Variant.newCongestionControl(cc)
	s.cc.Init(s, cfg)
	return s
}

// SetPool makes the sender draw its segments from pl and release every
// ACK it receives into it. The flow's receiver must share the same pool,
// and the pool must belong to the scheduler both run on. A nil pool
// (the default) allocates each segment and leaves ACKs to the collector.
func (s *Sender) SetPool(pl *packet.Pool) { s.pool = pl }

// Start begins transmission at the current simulated time.
func (s *Sender) Start() {
	if s.started {
		panic("tcp: sender started twice")
	}
	s.started = true
	s.stats.Started = s.sched.Now()
	s.trySend()
}

// CC returns the sender's congestion controller.
func (s *Sender) CC() CongestionControl { return s.cc }

// Cwnd returns the congestion window in segments (for rate-driven
// controllers, the inflight cap).
func (s *Sender) Cwnd() float64 { return s.cc.Window() }

// Ssthresh returns the slow-start threshold in segments.
func (s *Sender) Ssthresh() float64 { return s.cc.Ssthresh() }

// Outstanding returns the number of unacknowledged segments in flight.
func (s *Sender) Outstanding() int64 { return s.sndNxt - s.sndUna }

// InSlowStart reports whether the flow is in its exponential-growth
// phase (the paper's definition of a "short flow" is one that never
// leaves this state).
func (s *Sender) InSlowStart() bool { return s.cc.InSlowStart() }

// Finished reports whether all data has been acknowledged.
func (s *Sender) Finished() bool { return s.finished }

// Stats returns a copy of the flow counters.
func (s *Sender) Stats() Stats { return s.stats }

// Flow returns the flow ID.
func (s *Sender) Flow() packet.FlowID { return s.cfg.Flow }

// usableWindow returns the current usable window in whole segments: the
// controller's window clamped to MaxWindow and floored at 1.
func (s *Sender) usableWindow() int64 {
	w := min(s.cc.Window(), float64(s.cfg.MaxWindow))
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// longLived reports whether the flow has infinite data.
func (s *Sender) longLived() bool { return s.cfg.TotalSegments <= 0 }

// canSendNew reports whether the window and data supply allow sending
// segment sndNxt.
func (s *Sender) canSendNew() bool {
	return s.sndNxt < s.sndUna+s.usableWindow() &&
		(s.longLived() || s.sndNxt < s.cfg.TotalSegments)
}

// sendNext unconditionally transmits segment sndNxt and advances it
// (SACK's pipe accounting budgets its own sends).
func (s *Sender) sendNext() {
	s.transmit(s.sndNxt)
	s.sndNxt++
}

// paced reports whether transmissions are spread out rather than
// ACK-clocked: explicitly via Config.Paced, or inherently for
// rate-driven controllers.
func (s *Sender) paced() bool { return s.cfg.Paced || s.cc.RateDriven() }

// trySend transmits as many new segments as the window allows.
func (s *Sender) trySend() {
	if s.finished {
		return
	}
	if s.paced() && s.haveSRTT {
		s.schedulePaced()
		return
	}
	// No ACK can come back while the loop sends (the path back to the
	// sender costs at least one event), so sndUna and the window hold
	// still and the limit canSendNew tests is computed once.
	end := s.sndUna + s.usableWindow()
	if !s.longLived() {
		end = min(end, s.cfg.TotalSegments)
	}
	for s.sndNxt < end {
		s.sendNext()
	}
}

// paceInterval is the controller's inter-send gap: SRTT spread over the
// window for cwnd-driven variants, the modelled rate for BBR.
func (s *Sender) paceInterval() units.Duration {
	return s.cc.PaceInterval(s.srtt)
}

// schedulePaced arms the pacing timer for the next permitted send. The
// timer is left un-armed when the window is closed; the next ACK's
// trySend re-arms it.
func (s *Sender) schedulePaced() {
	if s.paceTimer.Active() {
		return
	}
	if !s.canSendNew() {
		return
	}
	now := s.sched.Now()
	next := s.lastSend.Add(s.paceInterval())
	if next < now {
		next = now
	}
	s.paceTimer.Reset(next)
}

func (s *Sender) paceFire() {
	if s.finished || !s.canSendNew() {
		return
	}
	s.sendNext()
	s.schedulePaced()
}

// transmit puts one segment on the wire; a segment below sndMax is a
// retransmission.
func (s *Sender) transmit(seq int64) {
	now := s.sched.Now()
	if s.aud != nil {
		s.auditSend(seq, now)
	}
	p := s.pool.Get()
	p.Flow = s.cfg.Flow
	p.Seq = seq
	p.Size = s.cfg.SegmentSize
	p.Sent = now
	if s.cfg.ECN {
		p.Flags = packet.FlagECT
	}
	s.stats.SegmentsSent++
	if seq < s.sndMax {
		s.stats.Retransmits++
		// Karn: a retransmission invalidates any RTT timing that it
		// could contaminate.
		if s.rttSeq >= seq {
			s.rttSeq = -1
		}
	} else {
		s.sndMax = seq + 1
		if s.rttSeq < 0 {
			s.rttSeq = seq
			s.rttSentAt = now
		}
	}
	if !s.rtoTimer.Active() {
		s.armRTO()
	}
	s.lastSend = now
	s.out.Handle(p)
}

func (s *Sender) armRTO() {
	s.rtoTimer.ResetAfter(min(s.rto<<s.backoff, maxRTO))
}

// restartRTO moves the timer's deadline one RTO from now while data is
// outstanding; a later deadline leaves its heap entry in place (see
// sim.Timer).
func (s *Sender) restartRTO() {
	if s.sndUna < s.sndNxt {
		s.armRTO()
	} else {
		s.rtoTimer.Stop()
	}
}

// Handle implements packet.Handler: the sender receives ACKs. It is the
// ACK's last holder and releases it as soon as the controller has seen it,
// so the segment this ACK clocks out reuses the same, still-cached packet.
func (s *Sender) Handle(p *packet.Packet) {
	if !p.IsAck() {
		panic(fmt.Sprintf("tcp: sender for flow %d received non-ACK %v", s.cfg.Flow, p))
	}
	if s.finished {
		s.pool.Put(p)
		return
	}
	ack, ece := p.Ack, p.Flags&packet.FlagECE != 0
	s.stats.AcksReceived++
	if s.aud != nil {
		s.auditAck(ack, s.sched.Now())
	}
	s.cc.OnAckReceived(p)
	s.pool.Put(p)
	if s.cfg.ECN && ece && s.cc.OnECE() {
		s.stats.ECNReductions++
	}
	switch {
	case ack > s.sndUna:
		s.onNewAck(ack)
	case ack == s.sndUna && s.Outstanding() > 0:
		s.onDupAck()
	}
	if s.aud != nil {
		s.auditState(s.sched.Now())
	}
	if s.tel != nil {
		s.tel.cwnd.Observe(s.Cwnd())
	}
}

func (s *Sender) onNewAck(ack int64) {
	now := s.sched.Now()
	acked := ack - s.sndUna
	s.sndUna = ack
	// A late ACK for data sent before a go-back-N rewind skips the
	// resends it covers, as ns-2's newack() raises t_seqno_.
	if ack > s.sndNxt && !mutateSkipSndNxtRaise {
		s.sndNxt = ack
	}

	// RTT sample (Karn-safe: rttSeq is invalidated on retransmission).
	if s.rttSeq >= 0 && ack > s.rttSeq {
		m := now.Sub(s.rttSentAt)
		s.sampleRTT(m)
		s.cc.OnRTTSample(m)
		s.rttSeq = -1
	}
	s.backoff = 0
	s.dupAcks = 0
	if s.cc.OnAck(ack, acked) {
		// The controller ran its own recovery transmissions
		// (partial-ACK repair); the default tail does not apply.
		return
	}

	if !s.longLived() && s.sndUna >= s.cfg.TotalSegments {
		s.complete(now)
		return
	}
	s.restartRTO()
	s.trySend()
}

func (s *Sender) onDupAck() {
	s.stats.DupAcksReceived++
	if s.cc.Recovering() {
		s.cc.OnDupAck()
		return
	}
	s.dupAcks++
	if s.dupAcks < dupThresh && !s.cc.LossIndicated() {
		return
	}
	// Fast retransmit: the controller cuts and repairs.
	s.stats.FastRecoveries++
	s.cc.OnLoss()
}

func (s *Sender) onTimeout() {
	if s.finished || s.sndUna >= s.sndNxt {
		return
	}
	s.stats.Timeouts++
	// The controller sees the pre-rewind flight.
	s.cc.OnTimeout()
	s.dupAcks = 0
	s.rttSeq = -1
	// Go-back-N: everything outstanding is presumed lost.
	s.sndNxt = s.sndUna
	if s.backoff < 16 {
		s.backoff++
	}
	// transmit arms the (backed-off) timer itself: the old timer has
	// fired, so no timer is pending at this point.
	s.sendNext()
	if s.aud != nil {
		s.auditState(s.sched.Now())
	}
	if s.tel != nil {
		s.tel.cwnd.Observe(s.Cwnd())
	}
}

func (s *Sender) sampleRTT(m units.Duration) {
	if m <= 0 {
		m = units.Nanosecond
	}
	if !s.haveSRTT {
		s.srtt = m
		s.rttvar = m / 2
		s.haveSRTT = true
	} else {
		delta := s.srtt - m
		if delta < 0 {
			delta = -delta
		}
		s.rttvar = (3*s.rttvar + delta) / 4
		s.srtt = (7*s.srtt + m) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	s.rto = max(min(s.rto, maxRTO), minRTO)
}

// SRTT returns the smoothed RTT estimate (zero until the first sample).
func (s *Sender) SRTT() units.Duration { return s.srtt }

// RTO returns the current retransmission timeout (before backoff).
func (s *Sender) RTO() units.Duration { return s.rto }

// Shutdown halts a long-lived sender mid-stream: pending timers are
// cancelled and the sender stops reacting to ACKs, as if the
// application closed the connection. Time-varying workloads use it to
// ramp the flow population down. The completion audit and OnComplete
// callback do not fire — the transfer did not finish, it was ended.
// Safe to call on an already-finished sender.
func (s *Sender) Shutdown(now units.Time) {
	if s.finished {
		return
	}
	s.finished = true
	s.stats.Completed = now
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
}

func (s *Sender) complete(now units.Time) {
	s.finished = true
	s.stats.Completed = now
	if s.aud != nil {
		s.auditComplete(now)
	}
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
	if s.OnComplete != nil {
		s.OnComplete(now)
	}
}
