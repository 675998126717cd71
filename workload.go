package bufsim

import (
	"errors"
	"fmt"
	"io"

	"bufsim/internal/experiment"
	"bufsim/internal/tcp"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// Workload is a declarative traffic description — pure data that the
// simulator binds onto its topology deterministically, so the same seed
// always produces the same flow schedule. The constructors below build
// the four families: PoissonWorkload (stationary short flows),
// SessionWorkload (closed-loop sessions), TraceWorkload (replay a
// recorded trace) and ProfileWorkload (time-varying traffic from a
// Profile). Run one with Generated; the scenario's link and Sender fill
// the workload's TCP templates.
type Workload = workload.Source

// SizeDist is a flow-length distribution in segments; see Pareto,
// FixedSize and GeometricSize.
type SizeDist = workload.SizeDist

// FixedSize is the degenerate distribution: every flow is exactly N
// segments.
type FixedSize = workload.FixedSize

// GeometricSize draws geometrically distributed flow lengths with the
// given mean.
type GeometricSize = workload.GeometricSize

// Profile describes time-varying traffic: piecewise-linear control
// points for the short-flow arrival rate (flows/sec) and the long-lived
// flow count, interpolated between points and clamped outside them.
// Profiles compose — ScaleArrival, ScalePopulation, ScaleTo, Compress
// and profile.Sum — and validate with clear errors (negative rates,
// out-of-order control points, zero-duration segments).
type Profile = profile.Profile

// ProfilePoint is one control point of a profile curve: value V holds
// at offset T from the profile's start.
type ProfilePoint = profile.Point

// ProfileCurve is a piecewise-linear function of time.
type ProfileCurve = profile.Curve

// ProfilePreset names a built-in profile shape; see ProfileNames. Preset
// curves are normalized to peak 1.0 on both axes — scale them with
// Profile.ScaleTo.
type ProfilePreset = profile.Preset

// Built-in profile shapes.
const (
	// ConstantProfile is the stationary baseline.
	ConstantProfile = profile.Constant
	// DiurnalProfile is a 24-hour swing (compress it to simulate faster).
	DiurnalProfile = profile.Diurnal
	// FlashCrowdProfile spikes 10x in seconds and decays.
	FlashCrowdProfile = profile.FlashCrowd
	// SteppedRampProfile climbs four load plateaus.
	SteppedRampProfile = profile.SteppedRamp
	// DrainProfile dips to 5% mid-run and recovers.
	DrainProfile = profile.Drain
)

// ParseProfile parses a preset name — "constant", "diurnal",
// "flashcrowd", "step" or "drain", case-insensitive, with aliases like
// "flash-crowd" and "maintenance". The empty string parses as
// ConstantProfile, the zero value. ProfilePreset also implements
// encoding.TextMarshaler/TextUnmarshaler, so JSON configs carry names.
func ParseProfile(s string) (ProfilePreset, error) { return profile.ParseProfile(s) }

// ProfileNames lists the canonical names of every built-in profile
// shape, in declaration order.
func ProfileNames() []string { return profile.ProfileNames() }

// LoadProfile reads a JSON profile description:
//
//	{
//	  "name": "launch-day",
//	  "arrival":    [{"t": "0s", "v": 10}, {"t": "30s", "v": 100}],
//	  "population": [{"t": "0s", "v": 20}],
//	  "compress": 2.0
//	}
//
// where "t" is a duration string ("30s", "1500ms") or a number of
// seconds. The loaded profile is validated.
func LoadProfile(r io.Reader) (Profile, error) { return profile.Load(r) }

// ReadFlows reads a recorded flow trace for TraceWorkload or Trace,
// sniffing the format: JSON ([{"start": "1.5s", "size": 30}, ...]) or
// the legacy start_seconds,size_segments CSV. Records must be ordered
// by start time; out-of-order rows are an error.
func ReadFlows(r io.Reader) ([]TraceFlow, error) { return workload.ReadFlows(r) }

// ArrivalRate converts an offered load (fraction of the link, in (0,1))
// into the short-flow arrival rate in flows/sec that offers it, given
// the link and a flow-size distribution — the bridge from "85% load"
// scenario language to a Profile's absolute arrival curve.
func ArrivalRate(load float64, link Link, sizes SizeDist) float64 {
	return workload.ArrivalRateForLoad(load, link.Rate, link.segment(), sizes)
}

// PoissonWorkload is the stationary workload: Poisson arrivals of
// finite flows at offered load (fraction of the bottleneck, in (0,1)),
// sizes drawn from the given distribution, senders capped at maxWindow
// segments (0 means the TCP default). Behind Generated, with fixed-size
// flows, it is the paper's §4 short-flow scenario.
func PoissonWorkload(load float64, sizes SizeDist, maxWindow int) Workload {
	return workload.PoissonSource{
		Load:  load,
		Sizes: sizes,
		TCP:   tcp.Config{MaxWindow: maxWindow},
	}
}

// SessionWorkload is the closed-loop Harpoon-style workload: a fixed
// population of sessions looping "transfer a file, think, repeat", with
// file sizes from the distribution and exponential thinks of the given
// mean.
func SessionWorkload(sessions int, sizes SizeDist, meanThink Duration, maxWindow int) Workload {
	return workload.SessionSource{
		Sessions:  sessions,
		Sizes:     sizes,
		MeanThink: meanThink,
		TCP:       tcp.Config{MaxWindow: maxWindow},
	}
}

// TraceWorkload replays recorded flows (see ReadFlows) at their
// recorded start offsets, anchored to the simulation start.
func TraceWorkload(flows []TraceFlow, maxWindow int) Workload {
	return workload.TraceSource{
		Flows: flows,
		TCP:   tcp.Config{MaxWindow: maxWindow},
	}
}

// ProfileWorkload compiles a time-varying profile into a workload:
// short flows arrive as a non-homogeneous Poisson process following the
// arrival curve (sizes from the distribution), and long-lived flows
// start and stop so the live count tracks the population curve. The
// schedule is deterministic per seed. The profile must be in absolute
// units (flows/sec and flow counts) — scale presets with ScaleTo first.
func ProfileWorkload(p Profile, sizes SizeDist, maxWindow int) (Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Arrival.Max() > 0 && sizes == nil {
		return nil, errors.New("ProfileWorkload with an arrival curve requires a size distribution")
	}
	return profile.Source{
		Profile: p,
		Sizes:   sizes,
		TCP:     tcp.Config{MaxWindow: maxWindow},
		LongTCP: tcp.Config{},
	}, nil
}

// Generated is the traffic a Workload generates: the stationary,
// session, trace and profile models all run here. A PoissonWorkload of
// fixed-size flows is the paper's §4 short-flow scenario; a
// ProfileWorkload opens the time-varying axis (flash crowds, diurnal
// swings) that a fixed flow count cannot express. Station RTTs spread
// +-40% around Link.RTT. Warmup and Measure default to 10 s and 40 s.
type Generated struct {
	Workload Workload
	// Stations is how many access links share the bottleneck (default
	// 50).
	Stations int
	// Drain is how long after the measurement window flows may finish
	// before they count as censored (default 30 s).
	Drain Duration
}

func (t Generated) lower(s Scenario, env experiment.RunEnv) (func() ProfileResult, error) {
	src, err := s.bind(t.Workload)
	path := s.Link.path(0, s.Warmup, s.Measure)
	path.RTTMin, path.RTTMax = s.Link.RTT*6/10, s.Link.RTT*14/10
	cfg := experiment.ProfileRunConfig{
		Seed:          s.Seed,
		Path:          path,
		BufferPackets: s.BufferPackets,
		Source:        src,
		Stations:      t.Stations,
		UseRED:        s.RED,
		Drain:         t.Drain,
		RunEnv:        env,
	}
	return func() ProfileResult { return experiment.RunProfile(cfg) }, firstErr(
		err,
		must(t.Stations >= 0 && t.Drain >= 0, "Generated.Stations and Generated.Drain must not be negative (got %d, %v)", t.Stations, t.Drain),
		s.redBuffer(),
	)
}

// bind fills a workload's TCP templates from the scenario: the link's
// segment size, which the workload's arrival rate and its senders must
// share with the bottleneck, and the Sender.
func (s Scenario) bind(w Workload) (Workload, error) {
	fill := func(c tcp.Config) tcp.Config {
		c.SegmentSize = s.Link.segment()
		c.Variant, c.Paced, c.DelayedAck = s.Sender.Variant, s.Sender.Paced, s.Sender.DelayedAck
		return c
	}
	switch src := w.(type) {
	case workload.PoissonSource:
		src.TCP = fill(src.TCP)
		return src, must(src.Load > 0 && src.Load < 1 && src.Sizes != nil,
			"Generated.Workload: PoissonWorkload needs a load in (0, 1) and a size distribution (got %v, %v)", src.Load, src.Sizes)
	case workload.SessionSource:
		src.TCP = fill(src.TCP)
		return src, must(src.Sessions > 0 && src.Sizes != nil,
			"Generated.Workload: SessionWorkload needs a positive session count and a size distribution (got %d, %v)", src.Sessions, src.Sizes)
	case workload.TraceSource:
		src.TCP = fill(src.TCP)
		err := workload.ValidateFlows(src.Flows)
		return src, must(err == nil, "Generated.Workload: %w", err)
	case profile.Source:
		src.TCP, src.LongTCP = fill(src.TCP), fill(src.LongTCP)
		return src, nil
	case nil:
		return nil, errors.New("Generated.Workload is nil")
	}
	return nil, fmt.Errorf("Generated.Workload: unknown workload %T", w)
}
