// Package topology builds the paper's evaluation network (Fig. 1,
// generalized): n sending stations on fast access links converge on router
// R1, whose output port to R2 is the bottleneck link under study; the
// receivers hang off R2. ACKs return over uncongested per-station reverse
// paths. All queueing of interest happens in the bottleneck's output
// queue, whose limit is the router buffer B the paper sizes.
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

	"bufsim/internal/audit"
	"bufsim/internal/link"
	"bufsim/internal/node"
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
	// the scheduler, the bottleneck queue (wrapped in a conservation
	// checker), every link, and every flow's sender and receiver report
	// invariant violations into it. Auditing only observes — the same seed
	// produces identical results with or without it.
	Auditor *audit.Auditor

	// Shards requests parallel execution. The dumbbell is cut at its
	// natural topology boundary: shard 0 owns R1, the bottleneck link and
	// its queue; the stations (hosts, access and reverse links, TCP
	// endpoints) are spread round-robin over the remaining shards. The
	// scheduler then runs conservative parallel windows bounded by the
	// smallest cross-shard propagation delay (min over stations of
	// RTT/2 - BottleneckDelay, and BottleneckDelay itself). Results are
	// bit-identical to an unsharded run at every shard count — that is
	// the kernel's contract, enforced by the sharded digest harness.
	//
	// 0 or 1 disables sharding. The count is silently capped at
	// Stations+1 (one shard per station plus the bottleneck) and
	// sim.MaxShards, and sharding is silently disabled when the topology
	// has no positive lookahead (RTTMin/2 == BottleneckDelay would leave
	// a zero-delay cross-shard hop).
	Shards int

	// home, when non-nil, pins every component of this dumbbell onto one
	// shard of an externally sharded scheduler instead of sharding the
	// dumbbell internally (see Fabric). Mutually exclusive with Shards.
	home *int
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

	senderHost   *node.Host
	receiverHost *node.Host
	access       *link.Link
	reverse      *link.Link
	sched        *sim.Scheduler
}

// Sched returns the scheduler view owning the station's components.
// Workload generators must schedule station-side work — flow starts,
// teardown timers, completion follow-ups — through it, so the event is
// classified to the station's shard and can fire inside a parallel
// window. On an unsharded dumbbell it is the base scheduler, so callers
// can use it unconditionally.
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

	// R1 and R2 are the routers at either end of the bottleneck.
	R1, R2 *node.Router
	// Bottleneck is the link under study (R1 -> R2).
	Bottleneck *link.Link
	// DropTail is the bottleneck queue when the default discipline is in
	// use (nil if Config.NewQueue overrode it); it exposes occupancy
	// statistics.
	DropTail *queue.DropTail

	// OnAddFlow, if set, observes every flow as AddFlow wires it. Telemetry
	// uses it to track dynamically created short flows; it must only
	// observe, never schedule events.
	OnAddFlow func(*Flow)

	stations []*Station
	flows    []*Flow
	nextNode packet.NodeID
	nextFlow packet.FlowID

	// Sharding plan (see Config.Shards). shards is the effective count
	// (1 when sharding is off); view0 is the scheduler view owning the
	// bottleneck side; r1In is the shard-0 ingress the access links
	// deliver into; ingress maps each receiver host to the station-shard
	// ingress the bottleneck delivers into.
	sharded bool
	shards  int
	view0   *sim.Scheduler
	r1In    sim.Target
	ingress map[packet.NodeID]sim.Target

	// slabs holds one TCP state slab per scheduler view, so every
	// sender's hot state lives in the dense arrays of the shard that
	// owns it (see tcp.Slab). Unsharded, all flows share one slab.
	slabs map[*sim.Scheduler]*tcp.Slab
	// pools holds one packet pool per scheduler view, for the same
	// reason: a flow's sender and receiver sit on one station, so every
	// Get and Put on a pool happens on the shard that owns it, even for
	// packets that crossed to the bottleneck's shard and back in between.
	pools map[*sim.Scheduler]*packet.Pool
}

// ingressActor fires a cross-shard packet arrival inside the shard that
// owns the next hop: the far end of a link's wire in a sharded dumbbell.
// It is the merge point of the topology cut — the only way packet flow
// crosses shards — so all component state stays shard-owned.
type ingressActor struct{ next packet.Handler }

// OnEvent implements sim.Actor; the opcode is the link's opArrive.
func (in *ingressActor) OnEvent(_ int32, arg any) { in.next.Handle(arg.(*packet.Packet)) }

// NewDumbbell builds the topology.
func NewDumbbell(cfg Config) *Dumbbell {
	cfg = cfg.validate()
	d := &Dumbbell{cfg: cfg, nextNode: 1, nextFlow: 1, shards: 1}
	d.planShards()
	d.R1 = node.NewRouter(d.allocNode(), "R1")
	d.R2 = node.NewRouter(d.allocNode(), "R2")

	var q queue.Queue
	if cfg.NewQueue != nil {
		q = cfg.NewQueue()
	} else {
		dt := queue.NewDropTail(cfg.Buffer)
		d.DropTail = dt
		q = dt
	}
	if cfg.Auditor != nil {
		cfg.Sched.SetAuditor(cfg.Auditor)
		q = queue.NewAudited(q, cfg.Auditor, "bottleneck")
	}
	d.Bottleneck = link.New("bottleneck", d.view0, cfg.BottleneckRate, cfg.BottleneckDelay, q, d.R2)
	d.Bottleneck.SetAuditor(cfg.Auditor)
	if !d.sharded {
		// One view runs the bottleneck and every station, so the packets
		// the bottleneck drops go back to the pool they were drawn from.
		// Sharded, the pools belong to the station shards and the drops
		// stay with the garbage collector (see packet.Packet).
		d.Bottleneck.SetDropPool(d.poolFor(d.view0))
	} else {
		d.r1In = d.view0.TargetFor(&ingressActor{next: d.R1})
		d.ingress = make(map[packet.NodeID]sim.Target)
		d.Bottleneck.DeliverVia = func(p *packet.Packet) sim.Target { return d.ingress[p.Dst] }
	}

	for i := 0; i < cfg.Stations; i++ {
		d.stations = append(d.stations, d.buildStation(i))
	}
	return d
}

// planShards decides the effective shard layout (see Config.Shards) and
// enables the kernel's parallel-window engine when it applies. It draws
// no randomness, so a sharded and an unsharded build consume the
// config RNG identically.
func (d *Dumbbell) planShards() {
	cfg := d.cfg
	if cfg.home != nil {
		if cfg.Shards > 1 {
			panic("topology: Config.Shards and fabric placement are mutually exclusive")
		}
		d.view0 = cfg.Sched.ShardView(*cfg.home)
		return
	}
	d.view0 = cfg.Sched
	n := cfg.Shards
	if n > cfg.Stations+1 {
		n = cfg.Stations + 1
	}
	if n > sim.MaxShards {
		n = sim.MaxShards
	}
	if n < 2 || d.lookahead() <= 0 {
		return
	}
	cfg.Sched.EnableShards(n, d.lookahead())
	d.sharded = true
	d.shards = n
	d.view0 = cfg.Sched.ShardView(0)
}

// lookahead is the smallest cross-shard propagation delay: the access
// links' forward delay is at least RTTMin/2 - BottleneckDelay, and the
// bottleneck contributes its own delay on the return cut.
func (d *Dumbbell) lookahead() units.Duration {
	look := d.cfg.RTTMin/2 - d.cfg.BottleneckDelay
	if d.cfg.BottleneckDelay < look {
		look = d.cfg.BottleneckDelay
	}
	return look
}

// viewFor returns the scheduler view owning station i's components:
// stations round-robin over shards 1..shards-1 (shard 0 is the
// bottleneck's), or the base scheduler when sharding is off.
func (d *Dumbbell) viewFor(i int) *sim.Scheduler {
	if !d.sharded {
		return d.view0
	}
	return d.cfg.Sched.ShardView(1 + i%(d.shards-1))
}

// Shards reports the effective shard count (1 when sharding is off).
func (d *Dumbbell) Shards() int { return d.shards }

func (d *Dumbbell) allocNode() packet.NodeID {
	id := d.nextNode
	d.nextNode++
	return id
}

func (d *Dumbbell) buildStation(i int) *Station {
	cfg := d.cfg
	rtt := cfg.RTTMin
	if cfg.RTTMax > cfg.RTTMin {
		rtt = units.Duration(cfg.RNG.Uniform(float64(cfg.RTTMin), float64(cfg.RTTMax)))
	}
	st := &Station{Index: i, RTT: rtt, sched: d.viewFor(i)}
	st.senderHost = node.NewHost(d.allocNode(), fmt.Sprintf("s%d", i))
	st.receiverHost = node.NewHost(d.allocNode(), fmt.Sprintf("d%d", i))

	// The bottleneck contributes its one-way delay to the forward path;
	// the access link carries the rest of the forward propagation and the
	// reverse path mirrors the whole forward delay, so the loop totals
	// the station RTT.
	fwdDelay := units.Duration(rtt/2) - cfg.BottleneckDelay
	revDelay := units.Duration(rtt / 2)

	st.access = link.New(fmt.Sprintf("access%d", i), st.sched, cfg.AccessRate,
		fwdDelay, queue.NewDropTail(queue.Unlimited()), d.R1)
	st.reverse = link.New(fmt.Sprintf("reverse%d", i), st.sched, cfg.AccessRate,
		revDelay, queue.NewDropTail(queue.Unlimited()), st.senderHost)
	st.access.SetAuditor(cfg.Auditor)
	st.reverse.SetAuditor(cfg.Auditor)
	st.senderHost.SetAuditor(cfg.Auditor, st.sched)
	st.receiverHost.SetAuditor(cfg.Auditor, st.sched)
	if d.sharded {
		// The station's two cross-shard wires: data packets leaving the
		// access link arrive at R1 in shard 0; packets leaving the
		// bottleneck for this station's receiver arrive at R2's routing
		// step in the station's shard. Both hops have delay >= the
		// lookahead by construction.
		st.access.DeliverVia = func(*packet.Packet) sim.Target { return d.r1In }
		d.ingress[st.receiverHost.ID()] = st.sched.TargetFor(&ingressActor{next: d.R2})
	}

	d.R1.AddRoute(st.receiverHost.ID(), d.Bottleneck)
	d.R2.AddRoute(st.receiverHost.ID(), st.receiverHost)
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

// AddFlow wires a new TCP connection across station st. The spec's Flow,
// Src and Dst fields are assigned by the topology; everything else
// (segment size, flow length, variant, windows) is taken from spec. The
// caller starts the sender (directly or via the scheduler).
func (d *Dumbbell) AddFlow(st *Station, spec tcp.Config) *Flow {
	spec.Flow = d.nextFlow
	d.nextFlow++
	spec.Src = st.senderHost.ID()
	spec.Dst = st.receiverHost.ID()

	snd := tcp.NewSenderSlab(d.slabFor(st.sched), spec, st.sched, st.access)
	rcv := tcp.NewReceiver(spec, st.sched, st.reverse)
	pool := d.poolFor(st.sched)
	snd.SetPool(pool)
	rcv.SetPool(pool)
	if d.cfg.Auditor != nil {
		snd.SetAuditor(d.cfg.Auditor)
		rcv.SetAuditor(d.cfg.Auditor)
	}
	st.senderHost.Attach(spec.Flow, snd)
	st.receiverHost.Attach(spec.Flow, rcv)

	f := &Flow{ID: spec.Flow, Station: st, Sender: snd, Receiver: rcv}
	d.flows = append(d.flows, f)
	if d.OnAddFlow != nil {
		d.OnAddFlow(f)
	}
	return f
}

// slabFor returns the TCP state slab owned by scheduler view (one per
// shard), creating it on first use. Dynamic workloads add flows either
// from the station shard itself or from barrier-synchronized generator
// events, so slab growth never races a parallel window on another
// shard — the ordering tcp.Slab requires.
func (d *Dumbbell) slabFor(view *sim.Scheduler) *tcp.Slab {
	if d.slabs == nil {
		d.slabs = make(map[*sim.Scheduler]*tcp.Slab)
	}
	sl, ok := d.slabs[view]
	if !ok {
		sl = tcp.NewSlab(16)
		d.slabs[view] = sl
	}
	return sl
}

// poolFor returns the packet pool owned by scheduler view, creating it on
// first use (see slabFor for why that is race-free). Under audit the pool
// poisons what it takes back instead of recycling it, so the links,
// queues and hosts of the topology catch any use after release.
func (d *Dumbbell) poolFor(view *sim.Scheduler) *packet.Pool {
	if d.pools == nil {
		d.pools = make(map[*sim.Scheduler]*packet.Pool)
	}
	pl, ok := d.pools[view]
	if !ok {
		pl = packet.NewPool(d.cfg.Auditor != nil)
		d.pools[view] = pl
	}
	return pl
}

// PoolStats returns the packet pools' counts, summed over the views.
func (d *Dumbbell) PoolStats() packet.PoolStats {
	var sum packet.PoolStats
	for _, pl := range d.pools {
		st := pl.Stats()
		sum.News += st.News
		sum.Reuses += st.Reuses
		sum.DropReleases += st.DropReleases
	}
	return sum
}

// RawFlow is an allocation of addressing for a non-TCP flow (e.g. CBR/UDP
// traffic): the IDs to stamp on packets and the links to write them to.
// Bind agents with BindRawFlow once they are constructed.
type RawFlow struct {
	ID  packet.FlowID
	Src packet.NodeID // sender host
	Dst packet.NodeID // receiver host
	// Forward is where the sender writes data packets (the station's
	// access link toward the bottleneck).
	Forward packet.Handler
	// Reverse is where the receiver writes feedback toward the sender.
	Reverse packet.Handler

	station *Station
}

// NewRawFlow allocates flow addressing on station st for a caller-provided
// protocol (CBR, UDP-like, custom). TCP flows should use AddFlow instead.
func (d *Dumbbell) NewRawFlow(st *Station) *RawFlow {
	id := d.nextFlow
	d.nextFlow++
	return &RawFlow{
		ID:      id,
		Src:     st.senderHost.ID(),
		Dst:     st.receiverHost.ID(),
		Forward: st.access,
		Reverse: st.reverse,
		station: st,
	}
}

// BindRawFlow attaches the flow's agents: snd receives reverse-path
// packets at the sender host, rcv receives data at the receiver host.
// Either may be nil for one-way traffic.
func (d *Dumbbell) BindRawFlow(f *RawFlow, snd, rcv packet.Handler) {
	if snd != nil {
		f.station.senderHost.Attach(f.ID, snd)
	}
	if rcv != nil {
		f.station.receiverHost.Attach(f.ID, rcv)
	}
}

// RemoveFlow detaches a finished flow's agents so stations can be reused
// indefinitely. The flow stays in Flows() for accounting.
func (d *Dumbbell) RemoveFlow(f *Flow) {
	f.Station.senderHost.Detach(f.ID)
	f.Station.receiverHost.Detach(f.ID)
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

// AggregateOutstanding returns the total unacknowledged segments across
// flows (total data actually in flight).
func (d *Dumbbell) AggregateOutstanding() int64 {
	var sum int64
	for _, f := range d.flows {
		sum += f.Sender.Outstanding()
	}
	return sum
}
