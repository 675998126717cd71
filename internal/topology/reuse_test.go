package topology

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"bufsim/internal/audit"
	"bufsim/internal/link"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// stateDiff returns the path of the first field where a and b, values of
// one type, differ, or "". Slices compare by length and elements, never
// capacity; funcs by nil-ness; pointers by identity, except that a pointer
// of a that same maps to b's counterpart (an agent and itself, as its
// timers' actor or its controller's sender) matches it, and a pointer
// to memory of a's own (its controller) is walked.
func stateDiff(a, b reflect.Value, path string, same map[uintptr]uintptr) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil on one side)"
			}
			return ""
		}
		pa, pb := a.Pointer(), b.Pointer()
		if pa == pb {
			return ""
		}
		if want, ok := same[pa]; ok {
			if want != pb {
				return path + " (points elsewhere)"
			}
			return ""
		}
		same[pa] = pb
		return stateDiff(a.Elem(), b.Elem(), "(*"+path+")", same)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil on one side)"
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path + " (dynamic type " + a.Elem().Type().String() + " vs " + b.Elem().Type().String() + ")"
		}
		return stateDiff(a.Elem(), b.Elem(), path, same)
	case reflect.Struct:
		for i := range a.NumField() {
			if d := stateDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, same); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for i := range a.Len() {
			if d := stateDiff(a.Index(i), b.Index(i), path+"[]", same); d != "" {
				return d
			}
		}
		return ""
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			return path + " (nil on one side)"
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
		return ""
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
		return ""
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
		return ""
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
		return ""
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
		return ""
	}
	return path + " (kind " + a.Kind().String() + " not compared)"
}

// TestRenewedAgentsMatchFresh: the agents a retired flow hands to the next
// AddFlow equal, field for field, a sender and receiver built fresh for
// that flow (slice capacity aside), for every variant and for paced and
// delayed-ACK flows. The retired flows ran through loss first, so every
// part of their state — scoreboards, out-of-order runs, RTT estimates,
// backoff, callbacks — was away from its zero; a field that renewing
// forgot would show here.
func TestRenewedAgentsMatchFresh(t *testing.T) {
	type arm struct {
		name         string
		old, renewed tcp.Config
	}
	var arms []arm
	for _, v := range tcp.Variants() {
		c := tcp.Config{SegmentSize: 1000, TotalSegments: 400, MaxWindow: 64, Variant: v}
		arms = append(arms, arm{v.String(), c, tcp.Config{SegmentSize: 500, TotalSegments: 9, Variant: v}})
	}
	paced := tcp.Config{SegmentSize: 1000, TotalSegments: 400, Variant: tcp.Reno, Paced: true}
	delayed := tcp.Config{SegmentSize: 1000, TotalSegments: 400, Variant: tcp.Sack, DelayedAck: true}
	arms = append(arms,
		arm{"paced", paced, paced},
		arm{"delayed-ack", delayed, delayed},
		arm{"sack-to-reno", arms[tcp.Sack].old, tcp.Config{SegmentSize: 1000, TotalSegments: 20, Variant: tcp.Reno}},
	)
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			s := sim.NewScheduler()
			aud := audit.New()
			cfg := smallConfig(s)
			cfg.Buffer, cfg.Auditor = queue.PacketLimit(8), aud
			d := NewDumbbell(cfg)
			retired := map[*tcp.Sender]*tcp.Receiver{}
			var lost int64
			var flows []*Flow
			for i := range 4 {
				f := d.AddFlow(d.Station(i%2), a.old)
				f.Sender.OnComplete = func(units.Time) {}
				f.Receiver.OnComplete = func(units.Time) {}
				f.Sender.Start()
				flows = append(flows, f)
			}
			s.Run(units.Epoch.Add(60 * units.Second))
			for _, f := range flows {
				if !f.Sender.Finished() {
					t.Fatalf("flow %d did not finish", f.ID)
				}
				lost += f.Sender.Stats().Retransmits
				retired[f.Sender] = f.Receiver
				d.RemoveFlow(f)
			}
			if lost == 0 {
				t.Fatal("no retransmission: the retired flows never left the loss-free path")
			}

			st := d.Station(1)
			f := d.AddFlow(st, a.renewed)
			if retired[f.Sender] != f.Receiver {
				t.Fatal("AddFlow built new agents while retired ones were spare")
			}
			spec := a.renewed
			spec.Flow = f.ID
			snd := tcp.NewSender(spec, s, st.access)
			rcv := tcp.NewReceiver(spec, s, st.reverse)
			snd.SetPool(d.pool)
			rcv.SetPool(d.pool)
			snd.SetAuditor(aud)
			rcv.SetAuditor(aud)
			same := map[uintptr]uintptr{
				reflect.ValueOf(f.Sender).Pointer():   reflect.ValueOf(snd).Pointer(),
				reflect.ValueOf(f.Receiver).Pointer(): reflect.ValueOf(rcv).Pointer(),
			}
			if diff := stateDiff(reflect.ValueOf(*f.Sender), reflect.ValueOf(*snd), "Sender", same); diff != "" {
				t.Errorf("renewed sender differs from a fresh one at %s", diff)
			}
			if diff := stateDiff(reflect.ValueOf(*f.Receiver), reflect.ValueOf(*rcv), "Receiver", same); diff != "" {
				t.Errorf("renewed receiver differs from a fresh one at %s", diff)
			}

			// The renewed flow runs as a fresh one would.
			f.Sender.Start()
			s.Run(s.Now().Add(10 * units.Second))
			if !f.Sender.Finished() || f.Receiver.CompletedAt == units.Never {
				t.Error("the renewed flow did not finish")
			}
			if err := aud.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRemovingALiveFlowIsAViolation: a flow removed while its sender still
// runs keeps its agents — the next flow gets new ones — and under audit
// the removal is reported.
func TestRemovingALiveFlowIsAViolation(t *testing.T) {
	s := sim.NewScheduler()
	aud := audit.New()
	cfg := smallConfig(s)
	cfg.Auditor = aud
	d := NewDumbbell(cfg)
	f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 100})
	f.Sender.Start()
	s.Run(units.Epoch.Add(50 * units.Millisecond))
	d.RemoveFlow(f)
	vs := aud.Violations()
	if len(vs) != 1 || vs[0].Invariant != "retire-quiescent" {
		t.Fatalf("violations %v, want one retire-quiescent", vs)
	}
	g := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 100})
	if g.Sender == f.Sender || g.Receiver == f.Receiver {
		t.Error("a flow removed while running handed its agents on")
	}
}

// TestShutDownFlowDropsItsDelayedAck: a long-lived flow shut down (as a
// profile ramps its population down) while its receiver delays an ACK is
// still retired cleanly — the ACK could only fall on the floor, so it is
// not sent — and its agents go to the next flow.
func TestShutDownFlowDropsItsDelayedAck(t *testing.T) {
	s := sim.NewScheduler()
	aud := audit.New()
	cfg := smallConfig(s)
	cfg.Auditor = aud
	d := NewDumbbell(cfg)
	spec := tcp.Config{SegmentSize: 1000, DelayedAck: true}
	f := d.AddFlow(d.Station(0), spec)
	f.Sender.Start()
	for s.Now() < units.Epoch.Add(5*units.Second) && f.Receiver.Quiescent() {
		s.Run(s.Now().Add(units.Millisecond))
	}
	if f.Receiver.Quiescent() {
		t.Fatal("the receiver never held a delayed ACK")
	}
	f.Sender.Shutdown(s.Now())
	d.RemoveFlow(f)
	spec.TotalSegments = 20
	g := d.AddFlow(d.Station(0), spec)
	if g.Sender != f.Sender || g.Receiver != f.Receiver {
		t.Fatal("the shut-down flow did not hand its agents on")
	}
	g.Sender.Start()
	s.Run(s.Now().Add(5 * units.Second))
	if !g.Sender.Finished() {
		t.Error("the next flow did not finish")
	}
	if err := aud.Err(); err != nil {
		t.Error(err)
	}
}

// TestRetiredFlowsPacketsMissItsSlotsNextFlow: a flow's slot in the
// agents table goes to a later flow once the flow is removed, and the
// segments and ACKs the removed flow still has in flight then reach
// neither of the new flow's agents: the entry records the new flow's ID,
// which theirs does not match. A long-lived flow is removed with its
// window in flight; short flows wired and retired at once use up IDs
// until the next one falls in the removed flow's slot; that flow is
// wired and never started, so any packet its agents take is a stray.
func TestRetiredFlowsPacketsMissItsSlotsNextFlow(t *testing.T) {
	s := sim.NewScheduler()
	cfg := smallConfig(s)
	cfg.Buffer = queue.PacketLimit(100)
	d := NewDumbbell(cfg)
	st := d.Station(0)
	tap := &ackTap{sched: s, d: d, delay: units.Duration(st.RTT / 2), rate: d.Config().AccessRate}
	st.reverse = link.NewPipe("reverse0", s, tap.rate, tap.delay, tap)
	old := d.AddFlow(st, tcp.Config{SegmentSize: 1000})
	old.Sender.Start()
	s.Run(units.Epoch.Add(2 * units.Second))
	d.RemoveFlow(old)
	mask := packet.FlowID(len(d.agents) - 1)
	for d.nextFlow&mask != old.ID&mask {
		f := d.AddFlow(d.Station(1), tcp.Config{SegmentSize: 1000, TotalSegments: 1})
		f.Sender.Shutdown(s.Now())
		d.RemoveFlow(f)
	}
	next := d.AddFlow(d.Station(1), tcp.Config{SegmentSize: 1000, TotalSegments: 10})
	if len(d.agents) != int(mask)+1 || d.slot(next.ID) != d.slot(old.ID) || next.ID == old.ID {
		t.Fatalf("flow %d and retired flow %d do not share a slot of a %d-slot table", next.ID, old.ID, len(d.agents))
	}

	data, acks := d.Bottleneck.DeliveredPackets(), tap.acks
	s.Run(s.Now().Add(units.Second))
	data, acks = d.Bottleneck.DeliveredPackets()-data, tap.acks-acks
	if data == 0 || acks == 0 {
		t.Fatalf("after the removal the bottleneck carried %d segments and the reverse pipe %d ACKs; the case needs both in flight", data, acks)
	}
	rcv, snd := next.Receiver, next.Sender.Stats()
	if got := rcv.ReceivedSegments + rcv.DupSegments; got != 0 || rcv.AcksSent != 0 || snd.AcksReceived != 0 {
		t.Errorf("the slot's new flow took %d of the retired flow's %d segments and %d of its %d ACKs", got, data, snd.AcksReceived, acks)
	}
}

// TestAgentsTableFollowsFlowsWired: a dumbbell that wires and retires
// flows by the thousand, at most a few hundred at once and in any order,
// keeps an agents table at most four times as long as the most flows it
// had wired at once (or its stations), and at least twice as long as
// those it has; it gives out increasing IDs, each wired flow's slot
// holds its agents, and Flows lists the wired flows in the order they
// were added. An entry and a Flow each take 32 bytes.
func TestAgentsTableFollowsFlowsWired(t *testing.T) {
	if e, f := unsafe.Sizeof(agentEntry{}), unsafe.Sizeof(Flow{}); e != 32 || f != 32 {
		t.Errorf("an agents-table entry takes %d bytes and a Flow %d, want 32 each", e, f)
	}
	s := sim.NewScheduler()
	d := NewDumbbell(smallConfig(s))
	rng := rand.New(rand.NewPCG(1, 2))
	var live []*Flow
	var last packet.FlowID
	peak := 0
	for i := range 20_000 {
		// The population swings between 0 and 300 and back, five times.
		target := 150 - 150*math.Cos(float64(i)*10*math.Pi/20_000)
		if float64(len(live)) < target+10*rng.NormFloat64() {
			f := d.AddFlow(d.Station(i%2), tcp.Config{SegmentSize: 1000, TotalSegments: 1})
			if f.ID <= last {
				t.Fatalf("flow %d wired after flow %d", f.ID, last)
			}
			last = f.ID
			live = append(live, f)
		} else if len(live) > 0 {
			k := rng.IntN(len(live))
			f := live[k]
			live = append(live[:k], live[k+1:]...)
			f.Sender.Shutdown(s.Now())
			d.RemoveFlow(f)
		}
		peak = max(peak, len(live))
		if n := len(d.agents); n&(n-1) != 0 || n < 2*len(live) || n > 4*max(peak, d.NumStations()) {
			t.Fatalf("step %d: %d flows wired (peak %d) in a %d-slot table; want a power of two in [2x wired, 4x peak]", i, len(live), peak, n)
		}
		if i%1000 == 0 {
			if got := d.Flows(); !slices.Equal(got, live) {
				t.Fatalf("step %d: Flows() lists %d flows, not the %d wired in their order", i, len(got), len(live))
			}
		}
	}
	for _, f := range live {
		if e := d.slot(f.ID); e.id != f.ID || e.snd != f.Sender || e.rcv != packet.Handler(f.Receiver) {
			t.Fatalf("flow %d's slot holds flow %d's agents", f.ID, e.id)
		}
	}
	if peak < 250 || last < 5000 {
		t.Fatalf("peak %d wired, last ID %d: the case needs hundreds at once and thousands in all", peak, last)
	}
}
