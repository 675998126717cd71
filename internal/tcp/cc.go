package tcp

import (
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// CongestionControl is the pluggable congestion-control policy: it owns
// the window (or, for rate-driven controllers, the rate model and an
// inflight cap) and reacts to the sender's lifecycle hooks. The sender
// owns everything else — sequence state, RTT estimation, RTO and pacing
// timers, go-back-N retransmission — so a controller is policy. It holds
// its *Sender from Init, reads the sequence pointers, flight size, SRTT
// and clock there, and drives sends through the sender's own methods
// (transmit for a retransmission, trySend for new data, restartRTO); it
// never touches packets or timers itself.
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
// simulated time is the sender's scheduler clock.
type CongestionControl interface {
	// Init binds the controller to its sender. cfg has defaults applied.
	Init(s *Sender, cfg Config)

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
