// Package topology builds the paper's evaluation network (Fig. 1,
// generalized): n sending stations on fast access links converge on the
// bottleneck link under study, past which the receivers hang. ACKs return
// over uncongested per-station reverse paths. All queueing of interest
// happens in the bottleneck's output queue, whose limit is the router
// buffer B the paper sizes. Topologies deliver by flow, so packets
// carry no addresses: past the bottleneck and at the end of a reverse
// path a packet goes straight to its flow's agent, with no router or
// host on the way (the parking lot's core links, see ParkingLot, pick
// the next hop by flow too).
//
// Stations are reusable attachment points: a long-lived-flow experiment
// puts one flow on each station, while the Poisson short-flow workloads
// multiplex many (sequential) flows over a fixed set of stations. Each
// station has its own two-way propagation delay, which is how the
// heterogeneous 25–300 ms RTTs that desynchronize flows (§3) enter the
// simulation.
package topology

import (
	"fmt"
	"math/bits"

	"bufsim/internal/audit"
	"bufsim/internal/link"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// Config describes a dumbbell.
type Config struct {
	Sched *sim.Scheduler
	RNG   *sim.RNG // used only to draw station RTTs; may be nil when RTTMin == RTTMax

	// BottleneckRate is the capacity C of the link under study.
	BottleneckRate units.BitRate
	// BottleneckDelay is the bottleneck link's one-way propagation delay.
	// It must be at most RTTMin/2; the remainder of each station's RTT is
	// placed on the station's access and reverse paths.
	BottleneckDelay units.Duration

	// Buffer is the bottleneck queue limit (the B being sized). Ignored
	// if NewQueue is set.
	Buffer queue.Limit
	// NewQueue, if non-nil, constructs the bottleneck queue (e.g. RED).
	NewQueue func() queue.Queue

	// AccessRate is each station's access-link rate; 0 defaults to 10x
	// the bottleneck (the paper's "access links faster than the
	// bottleneck" worst case).
	AccessRate units.BitRate

	// Stations is the number of attachment points.
	Stations int

	// RTTMin and RTTMax bound the stations' two-way propagation delays
	// (2*Tp, excluding queueing). Station RTTs are drawn uniformly; with
	// RTTMin == RTTMax every station gets the same RTT.
	RTTMin, RTTMax units.Duration

	// Auditor, when non-nil, switches the whole topology into audit mode:
	// the scheduler, every link (the bottleneck keeping its queue's books,
	// see link.Link.SetAuditor), and every flow's sender and receiver
	// report invariant violations into it. Auditing only observes — the same seed
	// produces identical results with or without it.
	Auditor *audit.Auditor
}

// validate asserts what the callers guarantee (bufsim.Check rejects a
// run's bad input before it gets here) and applies the defaults.
func (c Config) validate() Config {
	if c.Sched == nil || c.Stations <= 0 || c.BottleneckRate <= 0 || c.RTTMin <= 0 || c.RTTMax < c.RTTMin ||
		c.BottleneckDelay*2 > c.RTTMin || c.RTTMin != c.RTTMax && c.RNG == nil {
		panic(fmt.Sprintf("topology: bad Config: %d stations at %v, RTTs [%v, %v], bottleneck delay %v, Sched and RNG set: %t, %t",
			c.Stations, c.BottleneckRate, c.RTTMin, c.RTTMax, c.BottleneckDelay, c.Sched != nil, c.RNG != nil))
	}
	if c.AccessRate == 0 {
		c.AccessRate = 10 * c.BottleneckRate
	}
	return c
}

// Station is one sender/receiver attachment point.
type Station struct {
	Index int
	// RTT is the station's two-way propagation delay (no queueing).
	RTT units.Duration

	access  *link.Link
	reverse *link.Link
	sched   *sim.Scheduler
}

// Sched returns the scheduler the station's components run on, the
// dumbbell's. Workload generators schedule station-side work — flow
// starts, teardown timers, completion follow-ups — through it.
func (st *Station) Sched() *sim.Scheduler { return st.sched }

// Flow is a TCP connection wired across the dumbbell. RemoveFlow may
// hand a retired Flow, agents and all, to a later AddFlow, so a *Flow
// must not be used once it is removed.
type Flow struct {
	ID packet.FlowID
	// pos is the flow's index in Dumbbell.flows, -1 once it is removed;
	// beside the 32-bit ID it keeps the Flow at 32 bytes.
	pos      int32
	Station  *Station
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
}

// Dumbbell is the built topology.
type Dumbbell struct {
	cfg Config

	// Bottleneck is the link under study.
	Bottleneck *link.Link

	// OnAddFlow, if set, observes every flow as AddFlow wires it. Telemetry
	// uses it to track dynamically created short flows; it must only
	// observe, never schedule events.
	OnAddFlow func(*Flow)

	stations []*Station
	// flows holds the flows wired, in the order AddFlow wired them, with
	// a nil where RemoveFlow took one out; holes counts the nils, which
	// Flows compacts away.
	flows []*Flow
	holes int
	// agents is the agents table (see slot), wired counts its entries in
	// use, and spare holds retired flows whose agents are quiescent,
	// which AddFlow renews. nextFlow is the lowest flow ID not yet given
	// out.
	agents   []agentEntry
	wired    int
	spare    []*Flow
	nextFlow packet.FlowID
	// delayedAck is the first flow's tcp.Config.DelayedAck, which every
	// later flow must share (see AddFlow).
	delayedAck bool

	// slab is the sender arena every flow is taken from, and pool the
	// packet pool every endpoint draws from and the bottleneck drops into.
	// Both belong to the one goroutine that runs the scheduler.
	slab *tcp.Slab
	pool *packet.Pool
}

// NewDumbbell builds the topology.
func NewDumbbell(cfg Config) *Dumbbell {
	cfg = cfg.validate()
	// The agents table starts at a power of two at least twice the
	// stations: a long-lived run wires a flow on each.
	d := &Dumbbell{cfg: cfg, nextFlow: 1, agents: make([]agentEntry, 1<<bits.Len(uint(2*cfg.Stations-1))),
		slab: tcp.NewSlab(16), pool: packet.NewPool(cfg.Auditor != nil)}

	var q queue.Queue
	if cfg.NewQueue != nil {
		q = cfg.NewQueue()
	} else {
		q = queue.NewDropTail(cfg.Buffer)
	}
	if cfg.Auditor != nil {
		cfg.Sched.SetAuditor(cfg.Auditor)
	}
	d.Bottleneck = link.New("bottleneck", cfg.Sched, cfg.BottleneckRate, cfg.BottleneckDelay, q, (*receivers)(d))
	d.Bottleneck.SetAuditor(cfg.Auditor)
	// The packets the bottleneck drops go back to the pool they were
	// drawn from.
	d.Bottleneck.SetDropPool(d.pool)

	for i := 0; i < cfg.Stations; i++ {
		d.stations = append(d.stations, d.buildStation(i))
	}
	return d
}

func (d *Dumbbell) buildStation(i int) *Station {
	cfg := d.cfg
	rtt := cfg.RTTMin
	if cfg.RTTMax > cfg.RTTMin {
		rtt = units.Duration(cfg.RNG.Uniform(float64(cfg.RTTMin), float64(cfg.RTTMax)))
	}
	st := &Station{Index: i, RTT: rtt, sched: cfg.Sched}

	// The bottleneck contributes its one-way delay to the forward path;
	// the access link carries the rest of the forward propagation and the
	// reverse path mirrors the whole forward delay, so the loop totals
	// the station RTT.
	fwdDelay := units.Duration(rtt/2) - cfg.BottleneckDelay
	revDelay := units.Duration(rtt / 2)

	// Neither path drops or is measured, so both are pipes (see
	// link.NewPipe).
	st.access = link.NewPipe(fmt.Sprintf("access%d", i), st.sched, cfg.AccessRate, fwdDelay, d.Bottleneck)
	st.reverse = link.NewPipe(fmt.Sprintf("reverse%d", i), st.sched, cfg.AccessRate, revDelay, (*senders)(d))
	st.access.SetAuditor(cfg.Auditor)
	st.reverse.SetAuditor(cfg.Auditor)
	return st
}

// Station returns attachment point i.
func (d *Dumbbell) Station(i int) *Station { return d.stations[i] }

// NumStations returns the number of attachment points.
func (d *Dumbbell) NumStations() int { return len(d.stations) }

// Flows returns the flows wired, in the order they were added.
func (d *Dumbbell) Flows() []*Flow {
	if d.holes > 0 {
		d.compact()
	}
	return d.flows
}

// compact closes the holes RemoveFlow left in flows, keeping the order.
func (d *Dumbbell) compact() {
	live := d.flows[:0]
	for _, f := range d.flows {
		if f != nil {
			f.pos = int32(len(live))
			live = append(live, f)
		}
	}
	clear(d.flows[len(live):])
	d.flows, d.holes = live, 0
}

// Config returns the configuration the dumbbell was built with.
func (d *Dumbbell) Config() Config { return d.cfg }

// AddFlow wires a new TCP connection across station st. The spec's Flow
// is assigned by the topology; everything else
// (segment size, flow length, variant, windows) is taken from spec. The
// caller starts the sender (directly or via the scheduler).
//
// The first flow decides whether the bottleneck hands each segment to
// its receiver when it admits it (link.Link.SetHandOff): it does unless
// the receivers delay their ACKs. A station's reverse pipe then sends
// every ACK in arrival order; a delayed-ACK timer would send at the real
// time, behind ACKs already sent ahead, so AddFlow panics on a flow
// whose DelayedAck differs from the first's.
func (d *Dumbbell) AddFlow(st *Station, spec tcp.Config) *Flow {
	if len(d.flows) == d.holes {
		d.delayedAck = spec.DelayedAck
		if !spec.DelayedAck {
			d.Bottleneck.SetHandOff(d.receiverOf)
		}
	} else if spec.DelayedAck != d.delayedAck {
		panic(fmt.Sprintf("topology: flow with DelayedAck %v on a dumbbell whose flows have DelayedAck %v", spec.DelayedAck, d.delayedAck))
	}
	e := d.claim()
	spec.Flow = e.id

	var f *Flow
	if n := len(d.spare); n > 0 {
		f = d.spare[n-1]
		d.spare = d.spare[:n-1]
		f.ID, f.Station = spec.Flow, st
		f.Sender.Renew(spec, st.sched, st.access)
		f.Receiver.Renew(spec, st.sched, st.reverse)
	} else {
		f = &Flow{ID: spec.Flow, Station: st,
			Sender:   tcp.NewSenderSlab(d.slab, spec, st.sched, st.access),
			Receiver: tcp.NewReceiver(spec, st.sched, st.reverse)}
	}
	f.Sender.SetPool(d.pool)
	f.Receiver.SetPool(d.pool)
	if d.cfg.Auditor != nil {
		f.Sender.SetAuditor(d.cfg.Auditor)
		f.Receiver.SetAuditor(d.cfg.Auditor)
	}
	e.snd, e.rcv = f.Sender, f.Receiver

	f.pos = int32(len(d.flows))
	d.flows = append(d.flows, f)
	if d.OnAddFlow != nil {
		d.OnAddFlow(f)
	}
	return f
}

// agentEntry is one slot of the agents table, which holds each wired
// flow's two agents: flow id's entry sits in slot id & (len-1) of a
// power-of-two table at least twice as long as the flows wired, and
// records id, so a packet of a retired flow reads another flow's ID
// there, or none, and falls on the floor. A new flow takes the next ID
// whose slot is free (see claim): IDs are unique and increasing, never
// reused, and a run holds one entry per flow wired at once, not per flow
// it ever carried.
type agentEntry struct {
	id  packet.FlowID // 0: the slot is free
	snd *tcp.Sender   // takes the flow's reverse-path packets
	rcv packet.Handler
}

// slot returns the entry flow id's packets read: id's own if it is
// wired, a free one or another flow's if not.
func (d *Dumbbell) slot(id packet.FlowID) *agentEntry {
	a := d.agents
	return &a[uint(id)&uint(len(a)-1)]
}

// claim gives out the next flow ID whose slot is free and returns the
// slot, marked with it; the table doubles first if the new flow would
// fill more than half of it. Doubling cannot put two live flows in one
// slot: their IDs differ in the bits the old length masked. Flow IDs are
// int32, so a dumbbell runs out after 2^31-1 of them, where claim panics
// rather than reuse one.
func (d *Dumbbell) claim() *agentEntry {
	if 2*(d.wired+1) > len(d.agents) {
		old := d.agents
		d.agents = make([]agentEntry, 2*len(old))
		for _, e := range old {
			if e.id != 0 {
				*d.slot(e.id) = e
			}
		}
	}
	for {
		id := d.nextFlow
		if id <= 0 {
			panic("topology: flow IDs exhausted")
		}
		d.nextFlow++
		if e := d.slot(id); e.id == 0 {
			e.id = id
			d.wired++
			return e
		}
	}
}

// receivers and senders are the dumbbell as the handler its bottleneck
// and its reverse pipes deliver to: a packet goes to its flow's agent on
// that side, and one whose flow has none there falls on the floor, like
// a host RST-ing a closed port.
type (
	receivers Dumbbell
	senders   Dumbbell
)

func (d *receivers) Handle(p *packet.Packet) {
	if e := (*Dumbbell)(d).slot(p.Flow); e.id == p.Flow && e.rcv != nil {
		e.rcv.Handle(p)
	}
}

func (d *senders) Handle(p *packet.Packet) {
	if e := (*Dumbbell)(d).slot(p.Flow); e.id == p.Flow && e.snd != nil {
		e.snd.Handle(p)
	}
}

// receiverOf returns p's flow's tcp.Receiver, nil if its data goes
// anywhere else (see link.Link.SetHandOff).
func (d *Dumbbell) receiverOf(p *packet.Packet) packet.Handler {
	if e := d.slot(p.Flow); e.id == p.Flow {
		if r, ok := e.rcv.(*tcp.Receiver); ok {
			return r
		}
	}
	return nil
}

// PoolStats returns the packet pool's counts.
func (d *Dumbbell) PoolStats() packet.PoolStats { return d.pool.Stats() }

// RawFlow is a one-way, non-TCP flow (e.g. CBR/UDP traffic): the flow ID
// to stamp on its packets and the link to write them to. Bind its
// receiver with BindRawFlow once it is constructed.
type RawFlow struct {
	ID packet.FlowID
	// Forward is where the sender writes data packets (the station's
	// access link toward the bottleneck).
	Forward packet.Handler
}

// NewRawFlow allocates a flow ID and its slot in the agents table on
// station st for a caller-provided protocol (CBR, UDP-like, custom). TCP
// flows should use AddFlow instead. A raw flow is never removed.
func (d *Dumbbell) NewRawFlow(st *Station) *RawFlow {
	return &RawFlow{ID: d.claim().id, Forward: st.access}
}

// BindRawFlow wires the flow's receiver, which takes its data past the
// bottleneck; nil drops it there. A raw flow gets no feedback: its
// station's reverse pipe carries TCP ACKs, which the bottleneck's
// hand-off may send ahead of the clock (see AddFlow).
func (d *Dumbbell) BindRawFlow(f *RawFlow, rcv packet.Handler) {
	e := d.slot(f.ID)
	if e.id != f.ID {
		panic(fmt.Sprintf("topology: raw flow %d was not allocated by this dumbbell", f.ID))
	}
	e.rcv = rcv
}

// RemoveFlow unwires a finished flow's agents so stations can be reused
// indefinitely; its packets still in flight fall on the floor (flow IDs
// are never reused). The flow also leaves Flows(), so the dumbbell holds
// only the flows it carries; the others keep their order. Removal takes
// amortized constant time: it leaves a hole, and the holes are closed
// when they are half of Flows or when Flows is read.
//
// A flow whose sender is quiescent (tcp.Sender.Quiescent) is handed,
// agents and all, to the next AddFlow, so a run holds only the flows
// alive at once, and f must not be used once it is removed. A flow
// whose sender is not keeps its agents, and under audit is reported: a
// retired flow whose sender still runs is a teardown made too early.
func (d *Dumbbell) RemoveFlow(f *Flow) {
	if e := d.slot(f.ID); e.id == f.ID {
		*e = agentEntry{}
		d.wired--
	}
	if f.pos < 0 {
		return
	}
	d.flows[f.pos] = nil
	f.pos = -1
	if d.holes++; 2*d.holes > len(d.flows) {
		d.compact()
	}
	if !f.Sender.Quiescent() {
		if d.cfg.Auditor != nil {
			d.cfg.Auditor.Violationf(d.cfg.Sched.Now(), fmt.Sprintf("topology:flow%d", f.ID), "retire-quiescent",
				"removed while its sender runs (finished %v)", f.Sender.Finished())
		}
		return
	}
	// A finished sender takes no more ACKs, so one the receiver still
	// delays (a long-lived flow that was shut down) could only fall on the
	// floor: it is not sent, and the receiver is quiescent too.
	f.Receiver.CancelDelayedAck()
	d.spare = append(d.spare, f)
}

// AggregateWindow returns the instantaneous sum of all senders' congestion
// windows (the W = sum Wi process of Fig. 6).
func (d *Dumbbell) AggregateWindow() float64 {
	var sum float64
	for _, f := range d.flows {
		if f != nil && !f.Sender.Finished() {
			sum += f.Sender.Cwnd()
		}
	}
	return sum
}
