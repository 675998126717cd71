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
	"math"

	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// Config parameterizes one flow's sender and receiver.
type Config struct {
	Flow packet.FlowID
	Src  packet.NodeID // sender host
	Dst  packet.NodeID // receiver host

	// SegmentSize is the wire size of a full data segment in bytes.
	SegmentSize units.ByteSize
	// AckSize is the wire size of a pure ACK.
	AckSize units.ByteSize

	// TotalSegments is the flow length; 0 or negative means long-lived
	// (infinite data).
	TotalSegments int64

	// MaxWindow caps the congestion window (the receiver's advertised
	// window). The paper's short-flow analysis leans on typical caps of
	// 12–43 packets; long-flow experiments set it large enough not to
	// bind.
	MaxWindow int

	// InitialCwnd is the slow-start initial window; the paper describes
	// flows that "first send out two packets".
	InitialCwnd int

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

	// MinRTO / InitialRTO / MaxRTO bound the retransmission timer.
	MinRTO     units.Duration
	InitialRTO units.Duration
	MaxRTO     units.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.AckSize == 0 {
		c.AckSize = 40 * units.Byte // TCP/IP header, no options
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 1 << 20 // effectively unbounded
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 2
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * units.Millisecond
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = units.Second
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * units.Second
	}
	return c
}

// Stats accumulates per-flow counters.
type Stats struct {
	SegmentsSent    int64 // data segments put on the wire, incl. retransmissions
	Retransmits     int64
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

	started  bool
	finished bool

	// The hot per-flow state — sequence pointers, duplicate-ACK count,
	// the RFC 6298 RTT estimator, send timestamps and the classic
	// controllers' window — lives in row `row` of the shared slab (see
	// slab.go): sndUna, sndNxt, dupAcks, srtt, rttvar, haveSRTT, rto,
	// backoff, rttSeq, rttSentAt, lastSend, cwnd, ssthresh. (row comes
	// first so that it fills the padding after the two flags.)
	row int32
	sl  *Slab

	rtoTimer  sim.Event
	paceTimer sim.Event

	// pool is where segments come from and ACKs go back to (see SetPool);
	// nil means plain allocation.
	pool *packet.Pool

	// aud, when non-nil, receives invariant violations (see SetAuditor in
	// audit.go); audUna is the auditor's high-water mark of sndUna, and
	// audMaxSeq one past the highest sequence ever transmitted (sndNxt
	// itself rewinds on timeout, so it cannot bound incoming ACKs).
	aud       *audit.Auditor
	audUna    int64
	audMaxSeq int64

	stats Stats

	// OnComplete fires once when the final segment is cumulatively
	// acknowledged (finite flows only).
	OnComplete func(now units.Time)
	// OnStateChange, if set, observes every congestion-window update;
	// the trace package uses it for the Fig. 2–6 window processes.
	OnStateChange func(now units.Time)
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

// OnEvent implements sim.Actor: the sender's timers are typed kernel
// events, so arming one allocates nothing.
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

// NewSender returns a sender writing packets to out, with its state in
// a private single-row slab. Callers wiring many flows should allocate
// one Slab per shard and use NewSenderSlab so the per-flow state packs
// densely.
func NewSender(cfg Config, sched *sim.Scheduler, out packet.Handler) *Sender {
	return NewSenderSlab(NewSlab(1), cfg, sched, out)
}

// NewSenderSlab returns a sender writing packets to out, appending its
// per-flow state as a new row of sl. All senders sharing a slab must
// live on the same event shard (see Slab).
func NewSenderSlab(sl *Slab, cfg Config, sched *sim.Scheduler, out packet.Handler) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		cfg:   cfg,
		sched: sched,
		out:   out,
		sl:    sl,
		row:   sl.addRow(),
	}
	s.sl.rttSeq[s.row] = -1
	s.sl.rto[s.row] = cfg.InitialRTO
	s.stats.Completed = units.Never
	s.cc = cfg.Variant.newCongestionControl()
	s.cc.Init(s, cfg)
	return s
}

// SetPool makes the sender draw its segments from pl and release every
// ACK it receives into it. The flow's receiver must share the same pool,
// and the pool must belong to the scheduler view both run on. A nil pool
// (the default) allocates each segment and leaves ACKs to the collector.
func (s *Sender) SetPool(pl *packet.Pool) { s.pool = pl }

// StateSlab exposes the sender's slab and row (SenderOps); congestion
// controllers that keep their window in the slab's columns bind to it
// in Init.
func (s *Sender) StateSlab() (*Slab, int32) { return s.sl, s.row }

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
func (s *Sender) Outstanding() int64 { return s.sl.sndNxt[s.row] - s.sl.sndUna[s.row] }

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

// Now returns the current simulated time (SenderOps).
func (s *Sender) Now() units.Time { return s.sched.Now() }

// SndUna returns the lowest unacknowledged segment (SenderOps).
func (s *Sender) SndUna() int64 { return s.sl.sndUna[s.row] }

// SndNxt returns the next never-before-sent segment (SenderOps).
func (s *Sender) SndNxt() int64 { return s.sl.sndNxt[s.row] }

// ResetDupAcks clears the duplicate-ACK counter (SenderOps).
func (s *Sender) ResetDupAcks() { s.sl.dupAcks[s.row] = 0 }

// UsableWindow returns the current usable window in whole segments: the
// controller's window clamped to MaxWindow and floored at 1 (SenderOps).
func (s *Sender) UsableWindow() int64 {
	w := math.Min(s.cc.Window(), float64(s.cfg.MaxWindow))
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// longLived reports whether the flow has infinite data.
func (s *Sender) longLived() bool { return s.cfg.TotalSegments <= 0 }

// CanSendNew reports whether the window and data supply allow a new
// (never-before-sent) segment (SenderOps).
func (s *Sender) CanSendNew() bool {
	return s.sl.sndNxt[s.row] < s.sl.sndUna[s.row]+s.UsableWindow() &&
		(s.longLived() || s.sl.sndNxt[s.row] < s.cfg.TotalSegments)
}

// SendNextNew unconditionally transmits the next new segment
// (SenderOps; SACK's pipe accounting budgets its own sends).
func (s *Sender) SendNextNew() {
	s.transmit(s.sl.sndNxt[s.row], false)
	s.sl.sndNxt[s.row]++
}

// SendNew transmits as many new segments as the window allows — either
// immediately (ACK-clocked bursts, classic TCP) or spread across pacing
// intervals when pacing is on (SenderOps).
func (s *Sender) SendNew() { s.trySend() }

// Retransmit puts segment seq back on the wire (SenderOps).
func (s *Sender) Retransmit(seq int64) { s.transmit(seq, true) }

// RestartRTO re-arms the retransmission timer (SenderOps).
func (s *Sender) RestartRTO() { s.restartRTO() }

// paced reports whether transmissions are spread out rather than
// ACK-clocked: explicitly via Config.Paced, or inherently for
// rate-driven controllers.
func (s *Sender) paced() bool { return s.cfg.Paced || s.cc.RateDriven() }

// trySend transmits as many new segments as the window allows.
func (s *Sender) trySend() {
	if s.finished {
		return
	}
	if s.paced() && s.sl.haveSRTT[s.row] {
		s.schedulePaced()
		return
	}
	for s.CanSendNew() {
		s.transmit(s.sl.sndNxt[s.row], false)
		s.sl.sndNxt[s.row]++
	}
}

// paceInterval is the controller's inter-send gap: SRTT spread over the
// window for cwnd-driven variants, the modelled rate for BBR.
func (s *Sender) paceInterval() units.Duration {
	return s.cc.PaceInterval(s.sl.srtt[s.row])
}

// schedulePaced arms the pacing timer for the next permitted send. The
// timer is left un-armed when the window is closed; the next ACK's
// trySend re-arms it.
func (s *Sender) schedulePaced() {
	if s.sched.Active(s.paceTimer) {
		return
	}
	if !s.CanSendNew() {
		return
	}
	now := s.sched.Now()
	next := s.sl.lastSend[s.row].Add(s.paceInterval())
	if next < now {
		next = now
	}
	s.paceTimer = s.sched.PostAt(next, s, opSenderPace, nil)
}

func (s *Sender) paceFire() {
	if s.finished || !s.CanSendNew() {
		return
	}
	s.transmit(s.sl.sndNxt[s.row], false)
	s.sl.sndNxt[s.row]++
	s.schedulePaced()
}

// transmit puts one segment on the wire.
func (s *Sender) transmit(seq int64, isRetransmit bool) {
	now := s.sched.Now()
	if s.aud != nil {
		s.auditSend(seq, isRetransmit, now)
	}
	p := s.pool.Get()
	p.Flow = s.cfg.Flow
	p.Src = s.cfg.Src
	p.Dst = s.cfg.Dst
	p.Seq = seq
	p.Size = s.cfg.SegmentSize
	p.Sent = now
	p.Retransmitted = isRetransmit
	if s.cfg.ECN {
		p.Flags = packet.FlagECT
	}
	s.stats.SegmentsSent++
	if isRetransmit {
		s.stats.Retransmits++
		// Karn: a retransmission invalidates any RTT timing that it
		// could contaminate.
		if s.sl.rttSeq[s.row] >= seq {
			s.sl.rttSeq[s.row] = -1
		}
	} else if s.sl.rttSeq[s.row] < 0 {
		s.sl.rttSeq[s.row] = seq
		s.sl.rttSentAt[s.row] = now
	}
	if !s.sched.Active(s.rtoTimer) {
		s.armRTO()
	}
	s.sl.lastSend[s.row] = now
	s.out.Handle(p)
}

func (s *Sender) armRTO() {
	d := s.sl.rto[s.row] << s.sl.backoff[s.row]
	if d > s.cfg.MaxRTO {
		d = s.cfg.MaxRTO
	}
	s.rtoTimer = s.sched.PostAfter(d, s, opSenderRTO, nil)
}

func (s *Sender) restartRTO() {
	s.sched.Cancel(s.rtoTimer)
	if s.sl.sndUna[s.row] < s.sl.sndNxt[s.row] {
		s.armRTO()
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
	case ack > s.sl.sndUna[s.row]:
		s.onNewAck(ack)
	case ack == s.sl.sndUna[s.row] && s.Outstanding() > 0:
		s.onDupAck()
	}
	if s.aud != nil {
		s.auditState(s.sched.Now())
	}
	if s.OnStateChange != nil {
		s.OnStateChange(s.sched.Now())
	}
}

func (s *Sender) onNewAck(ack int64) {
	now := s.sched.Now()
	acked := ack - s.sl.sndUna[s.row]
	s.sl.sndUna[s.row] = ack

	// RTT sample (Karn-safe: rttSeq is invalidated on retransmission).
	if s.sl.rttSeq[s.row] >= 0 && ack > s.sl.rttSeq[s.row] {
		m := now.Sub(s.sl.rttSentAt[s.row])
		s.sampleRTT(m)
		s.cc.OnRTTSample(m)
		s.sl.rttSeq[s.row] = -1
	}
	s.sl.backoff[s.row] = 0

	if s.cc.OnAck(ack, acked) {
		// The controller ran its own recovery transmissions
		// (partial-ACK repair); the default tail does not apply.
		return
	}

	if !s.longLived() && s.sl.sndUna[s.row] >= s.cfg.TotalSegments {
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
	s.sl.dupAcks[s.row]++
	if s.sl.dupAcks[s.row] < dupThresh && !s.cc.LossIndicated() {
		return
	}
	// Fast retransmit: the controller cuts and repairs.
	s.stats.FastRecoveries++
	s.cc.OnLoss()
}

func (s *Sender) onTimeout() {
	if s.finished || s.sl.sndUna[s.row] >= s.sl.sndNxt[s.row] {
		return
	}
	s.stats.Timeouts++
	// The controller sees the pre-rewind flight.
	s.cc.OnTimeout()
	s.sl.dupAcks[s.row] = 0
	s.sl.rttSeq[s.row] = -1
	// Go-back-N: everything outstanding is presumed lost.
	s.sl.sndNxt[s.row] = s.sl.sndUna[s.row]
	if s.sl.backoff[s.row] < 16 {
		s.sl.backoff[s.row]++
	}
	// transmit arms the (backed-off) timer itself: the old timer has
	// fired, so no timer is pending at this point.
	s.transmit(s.sl.sndNxt[s.row], true)
	s.sl.sndNxt[s.row]++
	if s.aud != nil {
		s.auditState(s.sched.Now())
	}
	if s.OnStateChange != nil {
		s.OnStateChange(s.sched.Now())
	}
}

func (s *Sender) sampleRTT(m units.Duration) {
	if m <= 0 {
		m = units.Nanosecond
	}
	if !s.sl.haveSRTT[s.row] {
		s.sl.srtt[s.row] = m
		s.sl.rttvar[s.row] = m / 2
		s.sl.haveSRTT[s.row] = true
	} else {
		delta := s.sl.srtt[s.row] - m
		if delta < 0 {
			delta = -delta
		}
		s.sl.rttvar[s.row] = (3*s.sl.rttvar[s.row] + delta) / 4
		s.sl.srtt[s.row] = (7*s.sl.srtt[s.row] + m) / 8
	}
	s.sl.rto[s.row] = s.sl.srtt[s.row] + 4*s.sl.rttvar[s.row]
	if s.sl.rto[s.row] < s.cfg.MinRTO {
		s.sl.rto[s.row] = s.cfg.MinRTO
	}
	if s.sl.rto[s.row] > s.cfg.MaxRTO {
		s.sl.rto[s.row] = s.cfg.MaxRTO
	}
}

// SRTT returns the smoothed RTT estimate (zero until the first sample).
func (s *Sender) SRTT() units.Duration { return s.sl.srtt[s.row] }

// RTO returns the current retransmission timeout (before backoff).
func (s *Sender) RTO() units.Duration { return s.sl.rto[s.row] }

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
	s.sched.Cancel(s.rtoTimer)
	s.sched.Cancel(s.paceTimer)
}

func (s *Sender) complete(now units.Time) {
	s.finished = true
	s.stats.Completed = now
	if s.aud != nil {
		s.auditComplete(now)
	}
	s.sched.Cancel(s.rtoTimer)
	s.sched.Cancel(s.paceTimer)
	if s.OnComplete != nil {
		s.OnComplete(now)
	}
}
