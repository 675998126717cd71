package experiment

import (
	"fmt"

	"bufsim/internal/tcp"
)

// Scenario is the apparatus every experiment measures, declared once:
// the seed, the dumbbell and its window (Path), the bottleneck's queue
// discipline and the TCP every flow runs. Every config embeds it, so its
// fields read and assign as the config's own (cfg.Seed,
// cfg.BottleneckRate, cfg.Queue) and a sweep hands its cells the whole
// apparatus as Scenario: cfg.Scenario. A driver whose axis overrides one
// of these fields says so on its config.
//
// What varies between experiments is deliberately not here: the traffic
// and the buffer. The buffer is the axis most sweeps vary, so a cell sets
// it and never inherits one.
type Scenario struct {
	// Seed feeds every random draw of the run: station RTTs, RED's drops,
	// the traffic.
	Seed int64
	Path
	Queue  Queue
	Sender Sender
}

// Queue is the bottleneck's discipline. The zero value is drop-tail.
type Queue uint8

const (
	// DropTail admits packets while the buffer has room.
	DropTail Queue = iota
	// RED is Random Early Detection with conventional thresholds scaled
	// to the buffer, which must then be positive (the §5.1 "other
	// queueing disciplines" ablation).
	RED
	// REDECN is RED that marks instead of dropping, with ECN-capable
	// senders: congestion feedback without loss.
	REDECN
	// CoDel manages the sojourn time (5 ms target) and keeps the buffer
	// as its physical capacity — the delay-managed alternative to sizing
	// the buffer at all.
	CoDel
)

func (q Queue) String() string {
	switch q {
	case DropTail:
		return "droptail"
	case RED:
		return "red"
	case REDECN:
		return "red-ecn"
	case CoDel:
		return "codel"
	}
	return fmt.Sprintf("queue(%d)", uint8(q))
}

// Sender is the TCP every flow of a scenario runs. The zero value is the
// paper's: ACK-clocked Reno acknowledging every segment.
type Sender struct {
	// Variant selects the congestion-control family.
	Variant tcp.Variant
	// Paced spreads each sender's transmissions across the RTT instead
	// of ACK-clocked bursts (the TR's small-buffer remedy).
	Paced bool
	// DelayedAck acknowledges every second segment, as modern receivers
	// do.
	DelayedAck bool
}

// tcp is the one place a sender template is built: the path's segment
// size, the Sender, ECN capability when the queue marks, and the
// receiver-window cap (0: effectively unbounded).
func (s Scenario) tcp(maxWindow int) tcp.Config {
	return tcp.Config{
		SegmentSize: s.SegmentSize,
		MaxWindow:   maxWindow,
		Variant:     s.Sender.Variant,
		DelayedAck:  s.Sender.DelayedAck,
		Paced:       s.Sender.Paced,
		ECN:         s.Queue == REDECN,
	}
}
