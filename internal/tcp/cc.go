package tcp

import (
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// SenderOps is the sender surface a CongestionControl steers. The
// *Sender implements it; controllers hold it from Init and use it to
// read connection state (sequence pointers, flight size, clock) and to
// drive transmissions. Controllers never touch packets or timers
// directly — retransmission timing, go-back-N, pacing dispatch and RTT
// estimation are sender mechanics shared by every variant.
type SenderOps interface {
	// Now is the current simulated time.
	Now() units.Time
	// SndUna is the lowest unacknowledged segment.
	SndUna() int64
	// SndNxt is the next never-before-sent segment.
	SndNxt() int64
	// Outstanding is the number of unacknowledged segments in flight.
	Outstanding() int64
	// SRTT is the smoothed RTT estimate (zero until the first sample).
	SRTT() units.Duration
	// UsableWindow is the controller's window clamped to the receiver's
	// advertised window and floored at one whole segment.
	UsableWindow() int64
	// CanSendNew reports whether the window and data supply allow a new
	// (never-before-sent) segment.
	CanSendNew() bool
	// SendNextNew unconditionally transmits the next new segment.
	// Callers implementing their own pipe accounting (SACK) check the
	// budget themselves; everyone else uses SendNew.
	SendNextNew()
	// SendNew transmits as many new segments as the window allows,
	// respecting pacing when enabled.
	SendNew()
	// Retransmit puts segment seq back on the wire.
	Retransmit(seq int64)
	// RestartRTO re-arms the retransmission timer from now.
	RestartRTO()
	// ResetDupAcks clears the sender's duplicate-ACK counter (done when
	// an ACK advances the window or a variant restarts its count).
	ResetDupAcks()
	// StateSlab is the sender's struct-of-arrays state store and the
	// row this flow owns in it. Controllers that keep their window in
	// the slab's cwnd/ssthresh columns (the classic family and CUBIC)
	// bind to it in Init; richer models (BBR) may ignore it.
	StateSlab() (*Slab, int32)
}

// CongestionControl is the pluggable congestion-control policy: it owns
// the window (or, for rate-driven controllers, the rate model and an
// inflight cap) and reacts to the sender's lifecycle hooks. The sender
// owns everything else — sequence state, RTT estimation, RTO and pacing
// timers, go-back-N retransmission — so a controller is pure policy.
//
// Hook order for one incoming ACK: OnAckReceived (every ACK, before
// dispatch), then OnECE if the ACK echoes a congestion mark, then
// exactly one of OnAck (the cumulative point advanced; preceded by
// OnRTTSample when the ACK yields a Karn-valid measurement) or the
// duplicate-ACK path. Duplicate ACKs while not in recovery count toward
// the sender's dupThresh; crossing it (or LossIndicated reporting an
// early signal, as SACK scoreboards do) invokes OnLoss. Duplicate ACKs
// during recovery invoke OnDupAck. OnTimeout fires on RTO expiry,
// before the sender's go-back-N rewind, so Outstanding still reflects
// the pre-timeout flight.
//
// Controllers must be deterministic: no wall clock, no randomness —
// simulated time is available through SenderOps.Now.
type CongestionControl interface {
	// Init binds the controller to its sender. cfg has defaults applied.
	Init(ops SenderOps, cfg Config)

	// Window is the congestion window in segments. Rate-driven
	// controllers return their inflight cap. Must stay >= 1.
	Window() float64
	// Ssthresh is the slow-start threshold in segments (a controller
	// without one returns its window ceiling).
	Ssthresh() float64
	// InSlowStart reports the exponential-growth (or startup) phase.
	InSlowStart() bool
	// Recovering reports loss recovery in progress.
	Recovering() bool

	// OnAckReceived observes every arriving ACK before dispatch (SACK
	// scoreboard bookkeeping lives here). The sender releases p as soon
	// as this returns, so a controller must copy what it wants to keep.
	OnAckReceived(p *packet.Packet)
	// OnAck reacts to the cumulative point advancing by acked segments
	// to ack. Returning true (handled) means the controller performed
	// its own recovery transmissions — partial-ACK repair — and the
	// sender skips its default restart-RTO-and-send tail for this ACK.
	OnAck(ack, acked int64) (handled bool)
	// OnDupAck reacts to a duplicate ACK while Recovering (classic
	// window inflation, SACK pipe fill). Loss detection itself is the
	// sender's duplicate-ACK count plus LossIndicated.
	OnDupAck()
	// LossIndicated reports a controller-specific loss signal that
	// should trigger OnLoss before dupThresh duplicate ACKs (the SACK
	// scoreboard's lost test); loss-naive controllers return false.
	LossIndicated() bool
	// OnLoss reacts to fast-retransmit-detected loss: cut the window,
	// retransmit the head of the window, enter recovery as the variant
	// prescribes. The sender has already counted the recovery episode.
	OnLoss()
	// OnTimeout reacts to an RTO: collapse or cap the window. Called
	// with pre-rewind Outstanding; the sender then rewinds to go-back-N
	// and retransmits the head itself.
	OnTimeout()
	// OnECE reacts to an echoed ECN congestion mark and reports whether
	// a reduction was applied (the sender counts applied reductions).
	OnECE() bool
	// OnRTTSample observes each Karn-valid RTT measurement, before the
	// OnAck hook for the same ACK.
	OnRTTSample(rtt units.Duration)

	// RateDriven reports that the controller paces from its own rate
	// model; the sender then paces even when Config.Paced is unset.
	RateDriven() bool
	// PaceInterval is the inter-send gap while pacing. Window-driven
	// controllers spread one window over srtt; rate-driven controllers
	// derive it from their model. Must be non-negative.
	PaceInterval(srtt units.Duration) units.Duration
}
