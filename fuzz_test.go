package bufsim

import (
	"cmp"
	"testing"
)

// The traffic kinds FuzzRun builds, by its kind argument.
const (
	fuzzLongLived = iota
	fuzzReplicated
	fuzzSingleFlow
	fuzzMix
	fuzzTrace
	fuzzGenerated
	fuzzAdversary
	fuzzKinds
)

// fuzzPackets bounds the packets a FuzzRun input may send: the link
// rate is lowered until the run's simulated span carries at most this
// many segments.
const fuzzPackets = 50_000

// FuzzRun builds a Scenario and one Traffic kind from fuzz input and
// runs it under audit. Run must return a result or an error, never
// panic; Check must return the same error; and a run Run accepts must
// break no invariant. The scale is bounded by construction, so an input
// runs in milliseconds: the rate is at most 10 Mb/s and low enough that
// the run sends at most fuzzPackets segments, the warm-up and the
// measurement window are at most 2 s each (or zero, the kind's
// default), there are at most 50 flows,
// and a profile's arrivals offer at most 10 times the link.
//
// kind picks the traffic (its low 7 bits) and whether a size
// distribution is nil (its top bit). flags packs RED (bit 0), pacing
// (1), delayed ACKs (2), the variant (bits 3-5) and the workload family
// (bits 6-7). By kind, n is the flows (LongLived's, Mix's long ones, the
// workloads' sessions or peak population, the adversary's cohort); m is
// Replicated's replicas, Generated's stations, the trace's flow count or
// the adversary pattern; load is Mix's or the workload's load, or
// SingleFlow's buffer factor; size is the flow size; gap spaces the
// trace's flows and is the sessions' mean think time.
func FuzzRun(f *testing.F) {
	type in struct {
		kind, flags                                         uint8
		rate, rtt, segment, buffer, warmup, measure, spread int64
		n, m                                                int64
		load                                                float64
		size, window, drain, gap                            int64
	}
	const nilSizes = 0x80
	for _, c := range []in{
		// Generated traffic on a 1 ns RTT: the workload bed's shortest
		// station RTT, 0.6 x Link.RTT, rounds to 0 and used to be
		// defaulted to 60 ms, above its longest.
		{kind: fuzzGenerated, rate: int64(10 * Mbps), rtt: 1, buffer: 100, warmup: int64(Second), measure: int64(Second), load: 0.5, size: 14},
		// Pulse cohorts whose trains share under 1 bit/s each, on a link
		// that carries no segment per RTT and on one that does.
		{kind: fuzzAdversary, rate: 1, rtt: int64(10 * Millisecond), buffer: 5, warmup: int64(Second), measure: int64(Second), n: 10},
		{kind: fuzzAdversary, rate: 10, rtt: int64(Second), segment: 1, buffer: 5, warmup: int64(Second), measure: int64(Second), n: 50},
		// A link RTT below twice the long-lived bed's bottleneck delay.
		{kind: fuzzLongLived, rate: int64(Mbps), rtt: int64(8 * Millisecond), warmup: int64(Second), measure: int64(Second), n: 2},
		// A link that carries less than one segment per RTT.
		{kind: fuzzLongLived, rate: int64(100 * Kbps), rtt: int64(20 * Millisecond), warmup: int64(Second), measure: int64(Second), n: 2, buffer: 1},
		// Zero-segment flows, which Poisson arrivals would offer at an
		// unbounded rate.
		{kind: fuzzGenerated, rate: int64(10 * Mbps), rtt: int64(50 * Millisecond), buffer: 30, warmup: int64(Second), measure: int64(Second), load: 0.5},
		// One runnable input of each kind.
		{kind: fuzzLongLived, rate: int64(10 * Mbps), rtt: int64(50 * Millisecond), buffer: 20, warmup: int64(Second), measure: int64(Second), spread: int64(20 * Millisecond), n: 5},
		{kind: fuzzReplicated, rate: int64(2 * Mbps), rtt: int64(50 * Millisecond), buffer: 10, warmup: int64(Second), measure: int64(Second), n: 3, m: 2},
		{kind: fuzzSingleFlow, rate: int64(Mbps), rtt: int64(40 * Millisecond), load: 0.5},
		{kind: fuzzMix, rate: int64(10 * Mbps), rtt: int64(50 * Millisecond), buffer: 20, warmup: int64(Second), measure: int64(Second), n: 4, load: 0.3, size: 10},
		{kind: fuzzTrace, rate: int64(Mbps), rtt: int64(50 * Millisecond), m: 3, size: 20, gap: int64(100 * Millisecond)},
		{kind: fuzzGenerated, flags: 1 << 6, rate: int64(10 * Mbps), rtt: int64(50 * Millisecond), buffer: 30, warmup: int64(Second), measure: int64(Second), n: 4, m: 5, size: 6},
		{kind: fuzzGenerated | nilSizes, flags: 3<<6 | 2<<3 | 1, rate: int64(10 * Mbps), rtt: int64(50 * Millisecond), buffer: 30, warmup: int64(Second), measure: int64(Second), n: 4},
		{kind: fuzzAdversary, rate: int64(5 * Mbps), rtt: int64(40 * Millisecond), warmup: int64(Second), measure: int64(Second), n: 6, m: 2},
	} {
		f.Add(c.kind, c.flags, c.rate, c.rtt, c.segment, c.buffer, c.warmup, c.measure, c.spread, c.n, c.m, c.load, c.size, c.window, c.drain, c.gap)
	}
	f.Fuzz(func(t *testing.T, kind, flags uint8, rate, rtt, segment, buffer, warmup, measure, spread, n, m int64,
		load float64, size, window, drain, gap int64) {
		s := Scenario{
			Seed:          m,
			Link:          Link{Rate: BitRate(min(rate, int64(10*Mbps))), RTT: Duration(rtt % int64(Second+1)), SegmentSize: ByteSize(segment % 65_536)},
			BufferPackets: int(buffer % 10_001),
			Warmup:        Duration(warmup % int64(2*Second+1)),
			Measure:       Duration(measure % int64(2*Second+1)),
			RED:           flags&1 != 0,
			Sender:        Sender{Paced: flags&2 != 0, DelayedAck: flags&4 != 0, Variant: Variant(flags >> 3 & 7)},
		}
		spr := Duration(spread % int64(2*Second+1))
		flows, maxWin := int(n%51), int(window%100)
		var sizes SizeDist
		if kind&nilSizes == 0 {
			sizes = FixedSize(size % 1_000)
		}
		var trace []TraceFlow
		for i := range m & 3 {
			trace = append(trace, TraceFlow{Start: Duration(i * (gap % int64(Second))), Size: size % 1_000})
		}

		// span is how long the run simulates, at most (a zero window is
		// the kind's default, at most 20 s and 40 s); the rate comes down
		// until it carries at most fuzzPackets segments over it.
		kind = kind &^ nilSizes % fuzzKinds
		span := cmp.Or(s.Warmup, 20*Second) + cmp.Or(s.Measure, 40*Second)
		switch kind {
		case fuzzSingleFlow:
			span = 300 * Second
		case fuzzTrace:
			span = 63 * Second
		case fuzzGenerated:
			span += 30 * Second
		}
		if seg := s.Link.segment(); seg > 0 && span > 0 {
			s.Link.Rate = min(s.Link.Rate, BitRate(float64(fuzzPackets)*float64(seg.Bits())/span.Seconds()))
		}

		switch kind {
		case fuzzLongLived:
			fuzzCheck(t, s, LongLived{Flows: flows, RTTSpread: spr})
		case fuzzReplicated:
			fuzzCheck(t, s, Replicated{LongLived: LongLived{Flows: flows, RTTSpread: spr}, Replicas: int(m % 4)})
		case fuzzSingleFlow:
			fuzzCheck(t, s, SingleFlow{BufferFactor: load})
		case fuzzMix:
			fuzzCheck(t, s, Mix{LongFlows: flows, ShortLoad: load, ShortSizes: sizes, MaxWindow: maxWin, RTTSpread: spr})
		case fuzzTrace:
			fuzzCheck(t, s, Trace{Flows: trace, MaxWindow: maxWin, RTTSpread: spr})
		case fuzzGenerated:
			var w Workload
			switch flags >> 6 {
			case 0:
				w = PoissonWorkload(load, sizes, maxWin)
			case 1:
				w = SessionWorkload(flows, sizes, Duration(gap%int64(Second)), maxWin)
			case 2:
				w = TraceWorkload(trace, maxWin)
			default:
				var arrival float64
				if sizes != nil && sizes.Mean() >= 1 {
					arrival = ArrivalRate(min(load, 10), s.Link, sizes)
				}
				var err error
				w, err = ProfileWorkload(ConstantProfile.Profile().ScaleTo(arrival, float64(flows)), sizes, maxWin)
				if err != nil {
					return // the constructor's error, not Run's
				}
			}
			fuzzCheck(t, s, Generated{Workload: w, Stations: int(m % 51), Drain: Duration(drain % int64(2*Second+1))})
		case fuzzAdversary:
			fuzzCheck(t, s, Adversary{Pattern: AdversaryPattern(m & 3), Flows: flows})
		}
	})
}

// fuzzCheck is FuzzRun's predicate on one input: Check and Run agree,
// and an accepted run breaks no invariant.
func fuzzCheck[R Result](t *testing.T, s Scenario, tr Traffic[R]) {
	t.Helper()
	aud := NewAuditor()
	_, err := Run(s, tr, WithAudit(aud))
	if check := Check(s, tr); (check == nil) != (err == nil) {
		t.Fatalf("Check says %v, Run %v, on %+v with %+v", check, err, s, tr)
	}
	if err != nil {
		return
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("%+v with %+v: %v", s, tr, err)
	}
}
