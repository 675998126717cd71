package topology

import (
	"math"
	"reflect"
	"testing"

	"bufsim/internal/audit"
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
