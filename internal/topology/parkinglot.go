package topology

import (
	"fmt"

	"bufsim/internal/audit"
	"bufsim/internal/link"
	"bufsim/internal/node"
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
	RNG   *sim.RNG // may be nil if all flows use explicit RTTs

	// Rates, Delays and Buffers describe the k core links; the three
	// slices must have equal length >= 1.
	Rates   []units.BitRate
	Delays  []units.Duration
	Buffers []queue.Limit

	// AccessRate is the rate of every sender's access link; 0 defaults
	// to 10x the fastest core link.
	AccessRate units.BitRate

	// Auditor, when non-nil, switches the chain into audit mode: the
	// scheduler, every core queue (wrapped in a conservation checker),
	// every link, and every flow's endpoints report invariant violations
	// into it. See Config.Auditor.
	Auditor *audit.Auditor
}

func (c ParkingLotConfig) validate() ParkingLotConfig {
	if c.Sched == nil {
		panic("topology: ParkingLotConfig.Sched is required")
	}
	k := len(c.Rates)
	if k == 0 || len(c.Delays) != k || len(c.Buffers) != k {
		panic(fmt.Sprintf("topology: parking lot needs matching slices, got %d/%d/%d",
			len(c.Rates), len(c.Delays), len(c.Buffers)))
	}
	var max units.BitRate
	for i, r := range c.Rates {
		if r <= 0 {
			panic(fmt.Sprintf("topology: core link %d rate %v", i, r))
		}
		if r > max {
			max = r
		}
		if c.Delays[i] < 0 {
			panic(fmt.Sprintf("topology: core link %d negative delay", i))
		}
	}
	if c.AccessRate == 0 {
		c.AccessRate = 10 * max
	}
	return c
}

// ParkingLot is the built chain.
type ParkingLot struct {
	cfg ParkingLotConfig

	Routers []*node.Router
	// Links[i] carries R[i] -> R[i+1]; its queue limit is Buffers[i].
	Links     []*link.Link
	DropTails []*queue.DropTail

	flows    []*PathFlow
	nextNode packet.NodeID
	nextFlow packet.FlowID

	// pool recycles every flow's packets, at the endpoints and at the
	// core links that drop them; the chain runs on one unsharded
	// scheduler, so one pool serves it (see Dumbbell.poolFor).
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
	p := &ParkingLot{cfg: cfg, nextNode: 1, nextFlow: 1, pool: packet.NewPool(cfg.Auditor != nil)}
	for i := 0; i <= len(cfg.Rates); i++ {
		p.Routers = append(p.Routers, node.NewRouter(p.alloc(), fmt.Sprintf("R%d", i)))
	}
	if cfg.Auditor != nil {
		cfg.Sched.SetAuditor(cfg.Auditor)
	}
	for i, rate := range cfg.Rates {
		dt := queue.NewDropTail(cfg.Buffers[i])
		p.DropTails = append(p.DropTails, dt)
		var q queue.Queue = dt
		if cfg.Auditor != nil {
			q = queue.NewAudited(q, cfg.Auditor, fmt.Sprintf("core%d", i))
		}
		l := link.New(fmt.Sprintf("core%d", i), cfg.Sched, rate, cfg.Delays[i], q, p.Routers[i+1])
		l.SetAuditor(cfg.Auditor)
		l.SetDropPool(p.pool)
		p.Links = append(p.Links, l)
	}
	return p
}

func (p *ParkingLot) alloc() packet.NodeID {
	id := p.nextNode
	p.nextNode++
	return id
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

	sndHost := node.NewHost(p.alloc(), fmt.Sprintf("s%d", p.nextFlow))
	rcvHost := node.NewHost(p.alloc(), fmt.Sprintf("d%d", p.nextFlow))

	access := link.New(fmt.Sprintf("acc%d", p.nextFlow), p.cfg.Sched, p.cfg.AccessRate,
		units.Duration(rtt/2)-core, queue.NewDropTail(queue.Unlimited()), p.Routers[from])
	reverse := link.New(fmt.Sprintf("rev%d", p.nextFlow), p.cfg.Sched, p.cfg.AccessRate,
		units.Duration(rtt/2), queue.NewDropTail(queue.Unlimited()), sndHost)
	access.SetAuditor(p.cfg.Auditor)
	reverse.SetAuditor(p.cfg.Auditor)
	sndHost.SetAuditor(p.cfg.Auditor, p.cfg.Sched)
	rcvHost.SetAuditor(p.cfg.Auditor, p.cfg.Sched)

	// Route the receiver's address along the chain.
	for i := from; i < to; i++ {
		p.Routers[i].AddRoute(rcvHost.ID(), p.Links[i])
	}
	p.Routers[to].AddRoute(rcvHost.ID(), rcvHost)

	spec.Flow = p.nextFlow
	p.nextFlow++
	spec.Src = sndHost.ID()
	spec.Dst = rcvHost.ID()
	snd := tcp.NewSender(spec, p.cfg.Sched, access)
	rcv := tcp.NewReceiver(spec, p.cfg.Sched, reverse)
	snd.SetPool(p.pool)
	rcv.SetPool(p.pool)
	if p.cfg.Auditor != nil {
		snd.SetAuditor(p.cfg.Auditor)
		rcv.SetAuditor(p.cfg.Auditor)
	}
	sndHost.Attach(spec.Flow, snd)
	rcvHost.Attach(spec.Flow, rcv)

	f := &PathFlow{ID: spec.Flow, From: from, To: to, RTT: rtt, Sender: snd, Receiver: rcv}
	p.flows = append(p.flows, f)
	return f
}
