package topology

import (
	"fmt"
	"slices"

	"bufsim/internal/audit"
	"bufsim/internal/link"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// ParkingLotConfig describes a chain of routers R0 -> R1 -> ... -> Rk with
// a (potentially congested) link between each pair — the classic
// "parking lot" used to study flows that cross multiple bottlenecks. The
// paper's analysis assumes a single point of congestion ("if a single
// point of congestion is rare, then it is unlikely that a flow will
// encounter two or more congestion points", §5.1); this topology lets the
// experiments test how the sqrt(n) rule fares when that assumption is
// deliberately violated.
type ParkingLotConfig struct {
	Sched *sim.Scheduler

	// Rates, Delays and Buffers describe the k core links; the three
	// slices must have equal length >= 1.
	Rates   []units.BitRate
	Delays  []units.Duration
	Buffers []queue.Limit

	// AccessRate is the rate of every sender's access link; 0 defaults
	// to 10x the fastest core link.
	AccessRate units.BitRate

	// Auditor, when non-nil, switches the chain into audit mode: the
	// scheduler, every link (each core link keeping its queue's books),
	// and every flow's endpoints report invariant violations into it.
	// See Config.Auditor.
	Auditor *audit.Auditor
}

// validate asserts what its callers guarantee and applies the defaults,
// as Config.validate does.
func (c ParkingLotConfig) validate() ParkingLotConfig {
	k := len(c.Rates)
	bad := c.Sched == nil || k == 0 || len(c.Delays) != k || len(c.Buffers) != k
	for i := 0; !bad && i < k; i++ {
		bad = c.Rates[i] <= 0 || c.Delays[i] < 0
	}
	if bad {
		panic(fmt.Sprintf("topology: bad ParkingLotConfig: rates %v, delays %v, %d buffers, Sched set: %t",
			c.Rates, c.Delays, len(c.Buffers), c.Sched != nil))
	}
	if c.AccessRate == 0 {
		c.AccessRate = 10 * slices.Max(c.Rates)
	}
	return c
}

// ParkingLot is the built chain. It delivers by flow, as the dumbbell
// does: a packet leaving core link i goes to its flow's receiver if the
// flow exits at router i+1 and on to core link i+1 otherwise, and an ACK
// leaving a reverse pipe goes to the sender, the one agent on that host.
type ParkingLot struct {
	cfg ParkingLotConfig

	// Links[i] carries R[i] -> R[i+1]; its queue limit is Buffers[i].
	Links []*link.Link

	// flows holds every flow in FlowID order: IDs start at 1, so flow
	// id's entry is flows[id-1].
	flows []*PathFlow

	// pool recycles every flow's packets, at the endpoints and at the
	// core links that drop them; the chain runs on one scheduler, so one
	// pool serves it (see Dumbbell.pool).
	pool *packet.Pool
}

// PathFlow is a TCP connection entering at router From and leaving at
// router To (crossing core links From..To-1).
type PathFlow struct {
	ID       packet.FlowID
	From, To int
	RTT      units.Duration
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
}

// NewParkingLot builds the chain.
func NewParkingLot(cfg ParkingLotConfig) *ParkingLot {
	cfg = cfg.validate()
	p := &ParkingLot{cfg: cfg, pool: packet.NewPool(cfg.Auditor != nil)}
	if cfg.Auditor != nil {
		cfg.Sched.SetAuditor(cfg.Auditor)
	}
	for i, rate := range cfg.Rates {
		l := link.New(fmt.Sprintf("core%d", i), cfg.Sched, rate, cfg.Delays[i], queue.NewDropTail(cfg.Buffers[i]), hop{p, i})
		l.SetAuditor(cfg.Auditor)
		l.SetDropPool(p.pool)
		p.Links = append(p.Links, l)
	}
	return p
}

// hop is router i+1 as the handler core link i delivers to.
type hop struct {
	lot *ParkingLot
	i   int
}

func (h hop) Handle(pkt *packet.Packet) {
	if f := h.lot.flows[pkt.Flow-1]; f.To == h.i+1 {
		f.Receiver.Handle(pkt)
	} else {
		h.lot.Links[h.i+1].Handle(pkt)
	}
}

// PoolStats returns the packet pool's counts.
func (p *ParkingLot) PoolStats() packet.PoolStats { return p.pool.Stats() }

// Flows returns all flows added so far.
func (p *ParkingLot) Flows() []*PathFlow { return p.flows }

// coreDelay sums the propagation delays of links from..to-1.
func (p *ParkingLot) coreDelay(from, to int) units.Duration {
	var d units.Duration
	for i := from; i < to; i++ {
		d += p.cfg.Delays[i]
	}
	return d
}

// AddFlow wires a TCP connection entering the chain at router `from` and
// exiting at router `to` (0 <= from < to <= len(links)), with the given
// two-way propagation RTT. The flow's forward path is its access link
// plus core links from..to-1; the remainder of the RTT rides the access
// and reverse links.
func (p *ParkingLot) AddFlow(from, to int, rtt units.Duration, spec tcp.Config) *PathFlow {
	if from < 0 || to <= from || to > len(p.Links) {
		panic(fmt.Sprintf("topology: bad path %d->%d in %d-link chain", from, to, len(p.Links)))
	}
	core := p.coreDelay(from, to)
	if rtt/2 < core {
		panic(fmt.Sprintf("topology: RTT %v too small for %v of core delay", rtt, core))
	}

	spec.Flow = packet.FlowID(len(p.flows) + 1)
	access := link.NewPipe(fmt.Sprintf("acc%d", spec.Flow), p.cfg.Sched, p.cfg.AccessRate,
		units.Duration(rtt/2)-core, p.Links[from])
	snd := tcp.NewSender(spec, p.cfg.Sched, access)
	reverse := link.NewPipe(fmt.Sprintf("rev%d", spec.Flow), p.cfg.Sched, p.cfg.AccessRate,
		units.Duration(rtt/2), snd)
	rcv := tcp.NewReceiver(spec, p.cfg.Sched, reverse)
	access.SetAuditor(p.cfg.Auditor)
	reverse.SetAuditor(p.cfg.Auditor)
	snd.SetPool(p.pool)
	rcv.SetPool(p.pool)
	if p.cfg.Auditor != nil {
		snd.SetAuditor(p.cfg.Auditor)
		rcv.SetAuditor(p.cfg.Auditor)
	}

	f := &PathFlow{ID: spec.Flow, From: from, To: to, RTT: rtt, Sender: snd, Receiver: rcv}
	p.flows = append(p.flows, f)
	return f
}
