package tcp

import (
	"testing"
	"testing/quick"

	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// jitterPipe delivers packets after a random extra delay, producing
// genuine reordering (unlike loss, which TCP detects; reordering it must
// tolerate without collapsing).
type jitterPipe struct {
	sched  *sim.Scheduler
	base   units.Duration
	jitter units.Duration
	rng    *sim.RNG
	dst    packet.Handler
}

func (j *jitterPipe) Handle(p *packet.Packet) {
	d := j.base + units.Duration(j.rng.Uniform(0, float64(j.jitter)))
	j.sched.PostAfter(d, j, 0, p)
}

func (j *jitterPipe) OnEvent(_ int32, arg any) { j.dst.Handle(arg.(*packet.Packet)) }

func newJitterConn(cfg Config, seed int64, jitter units.Duration) *conn {
	s := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	fwd := &jitterPipe{sched: s, base: 10 * units.Millisecond, jitter: jitter, rng: rng.Fork()}
	rev := &pipe{sched: s, delay: 10 * units.Millisecond}
	snd := NewSender(cfg, s, fwd)
	rcv := NewReceiver(cfg, s, rev)
	fwd.dst = rcv
	rev.dst = snd
	return &conn{sched: s, snd: snd, rcv: rcv, rev: rev}
}

func TestRenoSurvivesReordering(t *testing.T) {
	// 2 ms of delivery jitter on a 20 ms RTT reorders adjacent segments
	// regularly. The flow must complete; spurious fast retransmits are
	// allowed (that is TCP's real behaviour under reordering) but the
	// stream must stay intact.
	c := newJitterConn(Config{Flow: 1, TotalSegments: 500}, 5, 2*units.Millisecond)
	c.snd.Start()
	c.sched.Run(units.Time(60 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("flow did not finish under reordering: %+v", c.snd.Stats())
	}
	if c.rcv.NextExpected() != 500 {
		t.Errorf("receiver at %d, want 500", c.rcv.NextExpected())
	}
}

func TestSackSurvivesReordering(t *testing.T) {
	c := newJitterConn(Config{Flow: 1, Variant: Sack, TotalSegments: 500}, 6, 2*units.Millisecond)
	c.snd.Start()
	c.sched.Run(units.Time(60 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("SACK flow did not finish under reordering: %+v", c.snd.Stats())
	}
	if c.rcv.NextExpected() != 500 {
		t.Errorf("receiver at %d, want 500", c.rcv.NextExpected())
	}
}

func TestSackBlocksProperties(t *testing.T) {
	// Property: blocks are disjoint, nonempty, within the ooo set, and
	// cover the freshest arrival when one exists in the set.
	f := func(raw []uint8, fresh uint8) bool {
		ooo := make(map[int64]bool)
		for _, v := range raw {
			ooo[int64(v)] = true
		}
		blocks := sackBlocks(nil, runsOf(ooo), int64(fresh), 3)
		if len(ooo) == 0 {
			return blocks == nil
		}
		if len(blocks) > 3 {
			return false
		}
		covered := make(map[int64]bool)
		for _, b := range blocks {
			if b[0] >= b[1] {
				return false
			}
			for s := b[0]; s < b[1]; s++ {
				if !ooo[s] || covered[s] {
					return false // outside the set or overlapping
				}
				covered[s] = true
			}
		}
		if ooo[int64(fresh)] && !covered[int64(fresh)] {
			return false // freshest arrival must be reported
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScoreboardPipeNeverNegative(t *testing.T) {
	f := func(blocks []uint8, una8, nxt8 uint8) bool {
		var sb sackScoreboard
		una := int64(una8 % 64)
		nxt := una + int64(nxt8%64)
		var bs [][2]int64
		for _, b := range blocks {
			s := int64(b % 128)
			bs = append(bs, [2]int64{s, s + 3})
		}
		sb.update(bs, una)
		p := sb.pipe(una, nxt)
		return p >= 0 && p <= nxt-una
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
