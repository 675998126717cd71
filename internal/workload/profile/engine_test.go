package profile

import (
	"math"
	"reflect"
	"testing"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

func testDumbbell(seed int64, stations, bufferPkts int, rate units.BitRate) (*sim.Scheduler, *topology.Dumbbell, *sim.RNG) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	d := topology.NewDumbbell(topology.Config{
		Sched:           s,
		RNG:             rng.Fork(),
		BottleneckRate:  rate,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(bufferPkts),
		Stations:        stations,
		RTTMin:          40 * units.Millisecond,
		RTTMax:          120 * units.Millisecond,
	})
	return s, d, rng
}

// TestConstantProfileMatchesLegacyPoisson is the record-for-record check
// that the thinning engine and the stationary generator share a
// schedule: a constant arrival profile must consume the RNG in exactly
// PoissonSource's order, so the two produce identical flow schedules — starts, sizes and completions — on identical
// topologies and seeds.
func TestConstantProfileMatchesLegacyPoisson(t *testing.T) {
	const (
		seed     = 7
		stations = 10
		buffer   = 30
		rate     = 10 * units.Mbps
		load     = 0.6
	)
	sizes := workload.GeometricSize(14)
	tcpCfg := tcp.Config{MaxWindow: 32}
	horizon := units.Epoch.Add(20 * units.Second)

	// The stationary source.
	s1, d1, rng1 := testDumbbell(seed, stations, buffer, rate)
	legacy := workload.PoissonSource{Load: load, Sizes: sizes, TCP: tcpCfg}.Bind(d1, rng1.Fork())
	legacy.Start()
	s1.Run(horizon)

	// Constant profile at the equivalent flows-per-second rate.
	lambda := workload.ArrivalRateForLoad(load, rate, tcpCfg.SegmentSize, sizes)
	s2, d2, rng2 := testDumbbell(seed, stations, buffer, rate)
	src := Source{
		Profile: Profile{
			Name:    "stationary",
			Arrival: Curve{{T: 0, V: lambda}, {T: 60 * units.Second, V: lambda}},
		},
		Sizes: sizes,
		TCP:   tcpCfg,
	}
	drv := src.Bind(d2, rng2.Fork())
	drv.Start()
	s2.Run(horizon)

	if legacy.Generated() == 0 {
		t.Fatal("legacy source generated no flows")
	}
	if got, want := drv.Generated(), legacy.Generated(); got != want {
		t.Fatalf("profile generated %d flows, legacy %d", got, want)
	}
	recs, legacyRecs := drv.Records(), legacy.Records()
	for i := range legacyRecs {
		if !reflect.DeepEqual(*recs[i], *legacyRecs[i]) {
			t.Fatalf("record %d diverged:\nprofile %+v\nlegacy  %+v", i, *recs[i], *legacyRecs[i])
		}
	}
}

// TestEngineDeterminism: the same profile and seed produce the same
// schedule, run for run.
func TestEngineDeterminism(t *testing.T) {
	prof := FlashCrowd.Profile().ScaleTo(8, 4)
	run := func() []workload.FlowRecord {
		s, d, rng := testDumbbell(3, 8, 20, 10*units.Mbps)
		src := Source{Profile: prof, Sizes: workload.GeometricSize(10), TCP: tcp.Config{MaxWindow: 16}}
		drv := src.Bind(d, rng.Fork())
		drv.Start()
		s.Run(units.Epoch.Add(70 * units.Second))
		out := make([]workload.FlowRecord, 0, len(drv.Records()))
		for _, r := range drv.Records() {
			out = append(out, *r)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no flows generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different schedules")
	}
}

// TestThinningTracksRateCurve: over a two-level arrival curve, the
// realized arrival counts in each half must be close to each level's
// expectation — thinning follows the curve, not the envelope.
func TestThinningTracksRateCurve(t *testing.T) {
	s, d, rng := testDumbbell(11, 10, 50, 50*units.Mbps)
	const lo, hi = 5.0, 50.0
	src := Source{
		Profile: Profile{
			Name: "two-level",
			Arrival: Curve{
				{T: 0, V: lo},
				{T: 40 * units.Second, V: lo},
				// Sharp ramp between the levels keeps each half pure.
				{T: 40*units.Second + 10*units.Millisecond, V: hi},
				{T: 80 * units.Second, V: hi},
			},
		},
		Sizes: workload.FixedSize(2),
		TCP:   tcp.Config{MaxWindow: 8},
	}
	drv := src.Bind(d, rng.Fork())
	drv.Start()
	s.Run(units.Epoch.Add(40 * units.Second))
	firstHalf := drv.Generated()
	s.Run(units.Epoch.Add(80 * units.Second))
	secondHalf := drv.Generated() - firstHalf

	if math.Abs(float64(firstHalf)-lo*40) > 4*math.Sqrt(lo*40) {
		t.Errorf("low half generated %d flows, want ~%v", firstHalf, lo*40)
	}
	if math.Abs(float64(secondHalf)-hi*40) > 4*math.Sqrt(hi*40) {
		t.Errorf("high half generated %d flows, want ~%v", secondHalf, hi*40)
	}
}

func TestCompilePopulation(t *testing.T) {
	cases := []struct {
		name        string
		curve       Curve
		wantInitial int
		wantDeltas  []int
	}{
		{"empty", nil, 0, nil},
		{"constant", Curve{{T: 0, V: 5}, {T: 10 * units.Second, V: 5}}, 5, nil},
		{"ramp up", Curve{{T: 0, V: 1}, {T: 10 * units.Second, V: 4}}, 1, []int{+1, +1, +1}},
		{"ramp down", Curve{{T: 0, V: 3}, {T: 6 * units.Second, V: 0}}, 3, []int{-1, -1, -1}},
		{"spike", Curve{
			{T: 0, V: 2}, {T: 10 * units.Second, V: 2},
			{T: 12 * units.Second, V: 6}, {T: 14 * units.Second, V: 2},
		}, 2, []int{+1, +1, +1, +1, -1, -1, -1, -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			initial, changes := compilePopulation(c.curve)
			if initial != c.wantInitial {
				t.Errorf("initial = %d, want %d", initial, c.wantInitial)
			}
			var deltas []int
			var prev units.Duration
			for _, ch := range changes {
				deltas = append(deltas, ch.delta)
				if ch.at < prev {
					t.Errorf("change at %v precedes %v: schedule not time-ordered", ch.at, prev)
				}
				prev = ch.at
			}
			if !reflect.DeepEqual(deltas, c.wantDeltas) {
				t.Errorf("deltas = %v, want %v", deltas, c.wantDeltas)
			}
		})
	}
}

// TestPopulationRampTracksCurve runs a population-only profile and
// checks the live long-flow count follows round(n(t)) at checkpoints,
// including back down the far side of a spike.
func TestPopulationRampTracksCurve(t *testing.T) {
	curve := Curve{
		{T: 0, V: 2},
		{T: 10 * units.Second, V: 2},
		{T: 14 * units.Second, V: 8},
		{T: 20 * units.Second, V: 8},
		{T: 24 * units.Second, V: 2},
	}
	s, d, rng := testDumbbell(5, 6, 40, 20*units.Mbps)
	src := Source{Profile: Profile{Name: "ramp", Population: curve}, LongTCP: tcp.Config{}}
	drv := src.Bind(d, rng.Fork())
	drv.Start()

	checkpoints := []struct {
		at   units.Duration
		want int
	}{
		{5 * units.Second, 2},
		{12 * units.Second, 5},
		{18 * units.Second, 8},
		{30 * units.Second, 2},
	}
	for _, cp := range checkpoints {
		s.Run(units.Epoch.Add(cp.at))
		if got := drv.Active(); got != cp.want {
			t.Errorf("Active at %v = %d, want %d", cp.at, got, cp.want)
		}
	}
	// The ramp-down shut senders down: no flow the engine dropped may
	// still transmit. Give in-flight packets time to clear, then check
	// the bottleneck goes idle (long flows left would keep it busy).
	busy := d.Bottleneck.BusyTime()
	s.Run(units.Epoch.Add(35 * units.Second))
	busyTail := d.Bottleneck.BusyTime() - busy
	// Two live flows keep transmitting; the tail must be well under
	// eight flows' worth of the previous plateau.
	if drv.Active() != 2 {
		t.Fatalf("Active after ramp-down = %d, want 2", drv.Active())
	}
	if busyTail <= 0 {
		t.Error("surviving long flows stopped transmitting")
	}
}
