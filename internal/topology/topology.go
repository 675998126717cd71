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
	"slices"

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

func (c Config) validate() Config {
	if c.Sched == nil {
		panic("topology: Config.Sched is required")
	}
	if c.Stations <= 0 {
		panic("topology: Config.Stations must be positive")
	}
	if c.BottleneckRate <= 0 {
		panic("topology: Config.BottleneckRate must be positive")
	}
	if c.AccessRate == 0 {
		c.AccessRate = 10 * c.BottleneckRate
	}
	if c.RTTMin <= 0 || c.RTTMax < c.RTTMin {
		panic(fmt.Sprintf("topology: bad RTT range [%v, %v]", c.RTTMin, c.RTTMax))
	}
	if c.BottleneckDelay*2 > c.RTTMin {
		panic(fmt.Sprintf("topology: bottleneck delay %v exceeds RTTMin/2", c.BottleneckDelay))
	}
	if c.RTTMin != c.RTTMax && c.RNG == nil {
		panic("topology: Config.RNG required for randomized RTTs")
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

// Flow is a TCP connection wired across the dumbbell.
type Flow struct {
	ID       packet.FlowID
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
	flows    []*Flow
	// agents holds each wired flow's two agents by FlowID, and spare the
	// retired flows' quiescent agents, which AddFlow renews.
	agents   []agentPair
	spare    []spareAgents
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
	d := &Dumbbell{cfg: cfg, nextFlow: 1,
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

// Flows returns all flows added so far.
func (d *Dumbbell) Flows() []*Flow { return d.flows }

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
	if len(d.flows) == 0 {
		d.delayedAck = spec.DelayedAck
		if !spec.DelayedAck {
			d.Bottleneck.SetHandOff(d.receiverOf)
		}
	} else if spec.DelayedAck != d.delayedAck {
		panic(fmt.Sprintf("topology: flow with DelayedAck %v on a dumbbell whose flows have DelayedAck %v", spec.DelayedAck, d.delayedAck))
	}
	spec.Flow = d.nextFlow
	d.nextFlow++

	var snd *tcp.Sender
	var rcv *tcp.Receiver
	if n := len(d.spare); n > 0 {
		a := d.spare[n-1]
		d.spare = d.spare[:n-1]
		snd = a.snd.Renew(spec, st.sched, st.access)
		rcv = a.rcv.Renew(spec, st.sched, st.reverse)
	} else {
		snd = tcp.NewSenderSlab(d.slab, spec, st.sched, st.access)
		rcv = tcp.NewReceiver(spec, st.sched, st.reverse)
	}
	snd.SetPool(d.pool)
	rcv.SetPool(d.pool)
	if d.cfg.Auditor != nil {
		snd.SetAuditor(d.cfg.Auditor)
		rcv.SetAuditor(d.cfg.Auditor)
	}
	*d.wire(spec.Flow) = agentPair{snd, rcv}

	f := &Flow{ID: spec.Flow, Station: st, Sender: snd, Receiver: rcv}
	d.flows = append(d.flows, f)
	if d.OnAddFlow != nil {
		d.OnAddFlow(f)
	}
	return f
}

// agentPair is a wired flow's two ends: snd takes its reverse-path
// packets and rcv its data. A nil agent drops what it would take.
type agentPair struct{ snd, rcv packet.Handler }

// spareAgents are a retired flow's agents, waiting for the next flow.
type spareAgents struct {
	snd *tcp.Sender
	rcv *tcp.Receiver
}

// wire returns flow f's entry in the agents table, growing the table.
func (d *Dumbbell) wire(f packet.FlowID) *agentPair {
	for int(f) >= len(d.agents) {
		d.agents = append(d.agents, agentPair{})
	}
	return &d.agents[f]
}

// ends returns flow f's agents, none for a flow never wired.
func (d *Dumbbell) ends(f packet.FlowID) agentPair {
	if uint(f) < uint(len(d.agents)) {
		return d.agents[f]
	}
	return agentPair{}
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
	if a := (*Dumbbell)(d).ends(p.Flow).rcv; a != nil {
		a.Handle(p)
	}
}

func (d *senders) Handle(p *packet.Packet) {
	if a := (*Dumbbell)(d).ends(p.Flow).snd; a != nil {
		a.Handle(p)
	}
}

// receiverOf returns p's flow's tcp.Receiver, nil if its data goes
// anywhere else (see link.Link.SetHandOff).
func (d *Dumbbell) receiverOf(p *packet.Packet) packet.Handler {
	if r, ok := d.ends(p.Flow).rcv.(*tcp.Receiver); ok {
		return r
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

// NewRawFlow allocates a flow ID on station st for a caller-provided
// protocol (CBR, UDP-like, custom). TCP flows should use AddFlow instead.
func (d *Dumbbell) NewRawFlow(st *Station) *RawFlow {
	id := d.nextFlow
	d.nextFlow++
	return &RawFlow{ID: id, Forward: st.access}
}

// BindRawFlow wires the flow's receiver, which takes its data past the
// bottleneck; nil drops it there. A raw flow gets no feedback: its
// station's reverse pipe carries TCP ACKs, which the bottleneck's
// hand-off may send ahead of the clock (see AddFlow).
func (d *Dumbbell) BindRawFlow(f *RawFlow, rcv packet.Handler) {
	*d.wire(f.ID) = agentPair{rcv: rcv}
}

// RemoveFlow unwires a finished flow's agents so stations can be reused
// indefinitely; its packets still in flight fall on the floor (flow IDs
// are never reused). The flow also leaves Flows(), so the dumbbell holds
// only the flows it carries; the others keep their order.
//
// A flow whose sender is quiescent (tcp.Sender.Quiescent) hands its
// agents to the next AddFlow, so a run holds only the agents of the flows
// alive at once, and f.Sender and f.Receiver must not be used once f is
// removed. A flow whose sender is not keeps its agents, and under audit
// is reported: a retired flow whose sender still runs is a teardown made
// too early.
func (d *Dumbbell) RemoveFlow(f *Flow) {
	d.agents[f.ID] = agentPair{}
	i := slices.Index(d.flows, f)
	if i < 0 {
		return
	}
	d.flows = slices.Delete(d.flows, i, i+1)
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
	d.spare = append(d.spare, spareAgents{f.Sender, f.Receiver})
}

// MeanRTT returns the average station two-way propagation delay — the
// paper's RTT-bar in B = RTT x C / sqrt(n).
func (d *Dumbbell) MeanRTT() units.Duration {
	var sum units.Duration
	for _, st := range d.stations {
		sum += st.RTT
	}
	return sum / units.Duration(len(d.stations))
}

// BDPPackets returns the bandwidth-delay product MeanRTT x C in packets of
// the given segment size.
func (d *Dumbbell) BDPPackets(segment units.ByteSize) int {
	return units.PacketsInFlight(d.cfg.BottleneckRate, d.MeanRTT(), segment)
}

// AggregateWindow returns the instantaneous sum of all senders' congestion
// windows (the W = sum Wi process of Fig. 6).
func (d *Dumbbell) AggregateWindow() float64 {
	var sum float64
	for _, f := range d.flows {
		if !f.Sender.Finished() {
			sum += f.Sender.Cwnd()
		}
	}
	return sum
}
