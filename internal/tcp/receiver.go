package tcp

import (
	"fmt"

	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// delAckTimeout is the standard delayed-ACK timer.
const delAckTimeout = 100 * units.Millisecond

// Receiver is the TCP sink: it reassembles the segment stream and emits
// cumulative acknowledgements. Every out-of-order arrival triggers an
// immediate duplicate ACK (that is what drives the sender's fast
// retransmit); in-order arrivals are acknowledged immediately, or every
// second segment when delayed ACKs are enabled.
type Receiver struct {
	cfg   Config
	sched *sim.Scheduler
	out   packet.Handler // reverse path toward the sender

	nextExpected int64
	ooo          seqRuns // out-of-order segments above nextExpected

	unackedSegs int // in-order segments not yet acknowledged (delayed ACK)
	delAck      sim.Event

	finished bool

	// echoECE is set when the last data segment carried a CE mark; the
	// next ACK echoes it (per-packet echo — a simplification of RFC
	// 3168's ECE-until-CWR handshake that preserves the control loop).
	echoECE bool
	// CEMarksSeen counts congestion-experienced arrivals.
	CEMarksSeen int64

	// ReceivedSegments counts distinct data segments delivered in order
	// (duplicates from spurious retransmissions are not recounted).
	ReceivedSegments int64
	// DupSegments counts duplicate data arrivals.
	DupSegments int64
	// AcksSent counts acknowledgements emitted.
	AcksSent int64
	// CompletedAt is when the final segment of a finite flow arrived, in
	// the paper's AFCT sense ("until the last packet reaches the
	// destination"); units.Never until then.
	CompletedAt units.Time

	// OnComplete fires once when a finite flow's data has fully arrived.
	OnComplete func(now units.Time)

	// pool is where data segments go back to and ACKs come from (see
	// SetPool); nil means plain allocation.
	pool *packet.Pool

	// aud, when non-nil, receives invariant violations (see SetAuditor in
	// audit.go); audNext is the auditor's high-water mark of nextExpected.
	aud     *audit.Auditor
	audNext int64
}

// Receiver event opcodes (see sim.Actor).
const opRecvDelAck int32 = 0

// OnEvent implements sim.Actor: the delayed-ACK timer is a typed kernel
// event.
func (r *Receiver) OnEvent(op int32, _ any) {
	if op == opRecvDelAck {
		r.sendAck()
	}
}

// NewReceiver returns a receiver sending ACKs to out.
func NewReceiver(cfg Config, sched *sim.Scheduler, out packet.Handler) *Receiver {
	cfg = cfg.withDefaults()
	return &Receiver{
		cfg:         cfg,
		sched:       sched,
		out:         out,
		CompletedAt: units.Never,
	}
}

// SetPool makes the receiver release every data segment it receives into
// pl and draw its ACKs from it (see Sender.SetPool). A nil pool (the
// default) leaves segments to the collector and allocates each ACK.
func (r *Receiver) SetPool(pl *packet.Pool) { r.pool = pl }

// NextExpected returns the receiver's cumulative-ACK point.
func (r *Receiver) NextExpected() int64 { return r.nextExpected }

// Handle implements packet.Handler: the receiver consumes data segments.
// It is the segment's last holder and releases it before acknowledging,
// so the ACK reuses the same, still-cached packet.
func (r *Receiver) Handle(p *packet.Packet) {
	if p.IsAck() {
		panic(fmt.Sprintf("tcp: receiver for flow %d received ACK %v", r.cfg.Flow, p))
	}
	seq, ce := p.Seq, p.Flags&packet.FlagCE != 0
	r.pool.Put(p)
	if ce {
		r.echoECE = true
		r.CEMarksSeen++
	}
	switch {
	case seq == r.nextExpected:
		r.nextExpected++
		r.ReceivedSegments++
		// Drain the out-of-order run this arrival reaches, if any (each
		// segment was already counted in ReceivedSegments when it
		// arrived).
		if len(r.ooo) > 0 && r.ooo[0][0] == r.nextExpected {
			r.nextExpected = r.ooo[0][1]
			r.ooo.trim(r.nextExpected)
		}
		r.onInOrder()
	case seq > r.nextExpected:
		if r.ooo.add(seq) {
			r.ReceivedSegments++
		} else {
			r.DupSegments++
		}
		// Out-of-order: immediate duplicate ACK (with SACK blocks when
		// the connection negotiated them).
		r.sendAckFor(seq)
	default:
		// Below the cumulative point: spurious retransmission. ACK so
		// the sender can make progress if its state is behind.
		r.DupSegments++
		r.sendAck()
	}

	if !r.finished && r.cfg.TotalSegments > 0 && r.nextExpected >= r.cfg.TotalSegments {
		r.finished = true
		r.CompletedAt = r.sched.Now()
		if r.OnComplete != nil {
			r.OnComplete(r.CompletedAt)
		}
	}
	if r.aud != nil {
		r.auditState(r.sched.Now())
	}
}

// onInOrder applies the (possibly delayed) acknowledgement policy for an
// in-order arrival.
func (r *Receiver) onInOrder() {
	if !r.cfg.DelayedAck {
		r.sendAck()
		return
	}
	r.unackedSegs++
	if r.unackedSegs >= 2 {
		r.sendAck()
		return
	}
	if !r.sched.Active(r.delAck) {
		r.delAck = r.sched.PostAfter(delAckTimeout, r, opRecvDelAck, nil)
	}
}

// sendAck emits a cumulative ACK.
func (r *Receiver) sendAck() { r.sendAckFor(-1) }

// sendAckFor emits a cumulative ACK; justArrived (or -1) orders the SACK
// blocks freshest-first when the variant negotiates SACK.
func (r *Receiver) sendAckFor(justArrived int64) {
	r.unackedSegs = 0
	r.sched.Cancel(r.delAck)
	r.AcksSent++
	p := r.pool.Get()
	p.Flow = r.cfg.Flow
	p.Src = r.cfg.Dst // ACKs flow from receiver back to sender
	p.Dst = r.cfg.Src
	p.Ack = r.nextExpected
	if r.cfg.Variant.generatesSack() {
		p.Sack = sackBlocks(p.Sack, r.ooo, justArrived, 3)
	}
	p.Flags = packet.FlagACK
	if r.echoECE {
		p.Flags |= packet.FlagECE
		r.echoECE = false
	}
	p.Size = r.cfg.AckSize
	p.Sent = r.sched.Now()
	r.out.Handle(p)
}
