// Package packet defines the unit of data the simulator moves around.
//
// Following the paper's presentation, TCP windows are counted in
// fixed-size segments; a Packet is one such segment (or a pure ACK). A
// packet carries just enough header state for a Reno implementation:
// sequence/ack numbers in segment units, flags, and the flow it belongs
// to, which is all the topologies deliver on.
package packet

import (
	"fmt"

	"bufsim/internal/units"
)

// FlowID identifies a TCP flow (a sender/receiver pair).
type FlowID int32

// Flags mark the kind of segment.
type Flags uint8

// Packet flag bits. The ECN bits follow RFC 3168's roles: ECT marks a
// packet from an ECN-capable transport, CE is stamped by an AQM queue in
// place of dropping, and ECE is the receiver echoing congestion back to
// the sender on ACKs.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagECT // ECN-capable transport
	FlagCE  // congestion experienced (set by the queue)
	FlagECE // echo of CE (set by the receiver on ACKs)
)

func (f Flags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "S"
	}
	if f&FlagACK != 0 {
		s += "A"
	}
	if f&FlagFIN != 0 {
		s += "F"
	}
	if f&FlagECT != 0 {
		s += "e"
	}
	if f&FlagCE != 0 {
		s += "c"
	}
	if f&FlagECE != 0 {
		s += "E"
	}
	if s == "" {
		return "-"
	}
	return s
}

// Packet is one segment in flight, shared by reference along its path.
//
// Ownership: whoever holds the pointer owns the packet until it hands it
// downstream, and must not touch it afterwards. A packet is released to
// its Pool where its path ends, and there are three such places:
// tcp.Receiver.Handle returns the data segment before it builds the ACK,
// tcp.Sender.Handle returns the ACK once it has read it, and
// link.Link.Send returns a packet its queue has just rejected (PutDropped)
// — if the topology gave the link a pool. A topology does so where the
// link runs on the scheduler whose endpoints draw from that pool (a Pool
// belongs to one goroutine): every dumbbell's bottleneck and the parking
// lot's core links. Packets for a detached flow and
// packets a queue drops after admitting them (CoDel) are abandoned to the
// garbage collector. Nothing else may call
// Pool.Put. Sources that never see their packets again (CBR, pulse,
// probe) allocate plainly; a dropped one joins the pool of the link that
// dropped it. Under audit a released packet is poisoned instead of reused
// (see NewPool), and every audited link reports one that shows up again.
type Packet struct {
	Flow  FlowID
	Flags Flags // sits in what would otherwise be padding after Flow

	// Seq is the segment sequence number (data packets) and Ack is the
	// cumulative acknowledgement (ACK packets): "every segment below Ack
	// has been received".
	Seq int64
	Ack int64

	// Sack carries up to three selective-acknowledgement blocks on ACK
	// packets: [start, end) ranges of segments received above Ack. Empty
	// when the receiver has nothing out of order (or SACK is disabled).
	// The backing array survives Pool.Put, so a recycled packet carries
	// blocks without allocating.
	Sack [][2]int64

	// Size is the wire size in bytes, including an idealized header.
	Size units.ByteSize

	// Sent is when the sender's TCP put the packet on its access link;
	// used for RTT sampling.
	Sent units.Time

	// Enqueued is stamped by a queue when the packet is accepted, so the
	// queueing delay can be measured at dequeue.
	Enqueued units.Time
}

// IsAck reports whether the packet is a pure acknowledgement.
func (p *Packet) IsAck() bool { return p.Flags&FlagACK != 0 }

func (p *Packet) String() string {
	if p.IsAck() {
		return fmt.Sprintf("flow %d ack %d (%s, %dB)", p.Flow, p.Ack, p.Flags, p.Size)
	}
	return fmt.Sprintf("flow %d seq %d (%s, %dB)", p.Flow, p.Seq, p.Flags, p.Size)
}

// Handler consumes packets; links deliver to Handlers, and links and the
// TCP agents implement it.
type Handler interface {
	Handle(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Handle calls f(p).
func (f HandlerFunc) Handle(p *Packet) { f(p) }
