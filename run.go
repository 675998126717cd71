package bufsim

import (
	"fmt"

	"bufsim/internal/experiment"
	"bufsim/internal/workload"
)

// Scenario is the apparatus every run shares, the paper's Fig. 1: one
// bottleneck Link with a buffer in front of it, a warm-up and a
// measurement window, and the Sender every flow runs. What crosses the
// bottleneck is the Traffic handed to Run beside it.
type Scenario struct {
	// Seed feeds every random draw of the run: station RTTs, arrivals,
	// RED's drops.
	Seed int64

	Link Link
	// BufferPackets is the bottleneck buffer. Zero is unlimited for
	// LongLived, Replicated, Trace and Generated, and the BDP for
	// Adversary; Mix needs one, and SingleFlow sizes its own.
	BufferPackets int

	// Warmup is simulated and discarded, Measure is the window the result
	// covers; zero takes the traffic kind's default.
	Warmup, Measure Duration

	// RED switches the bottleneck from drop-tail to Random Early
	// Detection sized to the same buffer.
	RED bool

	Sender Sender
}

// Sender is the TCP every flow of a scenario runs. The zero value is the
// paper's: ACK-clocked Reno acknowledging every segment.
type Sender struct {
	// Variant selects the congestion-control family.
	Variant Variant
	// Paced spreads each sender's transmissions across the RTT instead
	// of ACK-clocked bursts.
	Paced bool
	// DelayedAck acknowledges every second segment, as modern receivers
	// do.
	DelayedAck bool
}

// Traffic is what crosses a Scenario's bottleneck: one of the kinds
// LongLived, Replicated, SingleFlow, Mix, Trace, Generated and Adversary.
// R is the kind's result, which Run returns typed.
type Traffic[R Result] interface {
	// lower checks the kind against s and builds its run under env. The
	// run is called only when the error is nil.
	lower(s Scenario, env experiment.RunEnv) (func() R, error)
}

// Run simulates traffic t on scenario s. It returns an error naming the
// field at fault when the input cannot be run: a value out of range, or
// a Scenario field that t does not read. The same s, t and seed give the
// same result with any Option on or off.
func Run[R Result](s Scenario, t Traffic[R], opts ...Option) (R, error) {
	var env experiment.RunEnv
	for _, o := range opts {
		if o != nil {
			o(&env)
		}
	}
	run, err := t.lower(s, env)
	if err = firstErr(s.check(), err); err != nil {
		var zero R
		return zero, err
	}
	return run(), nil
}

// check is what every kind needs of a Scenario.
func (s Scenario) check() error {
	return firstErr(
		must(s.Link.Rate > 0, "Scenario.Link.Rate must be positive (got %v)", s.Link.Rate),
		must(s.Link.RTT > 0, "Scenario.Link.RTT must be positive (got %v)", s.Link.RTT),
		must(s.Link.SegmentSize >= 0, "Scenario.Link.SegmentSize must not be negative (got %v)", s.Link.SegmentSize),
		must(s.BufferPackets >= 0, "Scenario.BufferPackets must not be negative (got %d)", s.BufferPackets),
		must(s.Warmup >= 0 && s.Measure >= 0, "Scenario.Warmup and Scenario.Measure must not be negative (got %v, %v)", s.Warmup, s.Measure),
	)
}

// redBuffer is the check of the kinds that size RED to BufferPackets.
func (s Scenario) redBuffer() error {
	return must(!s.RED || s.BufferPackets > 0,
		"Scenario.RED needs a positive Scenario.BufferPackets: RED's thresholds scale with the buffer")
}

// spread checks a kind's RTTSpread: station RTTs span Link.RTT +-
// RTTSpread/2, so the low end must stay positive.
func (s Scenario) spread(kind string, d Duration) error {
	return must(d >= 0 && d < 2*s.Link.RTT,
		"%s.RTTSpread %v must be in [0, 2 x Link.RTT = %v): station RTTs span Link.RTT +- RTTSpread/2", kind, d, 2*s.Link.RTT)
}

// unread rejects a Scenario field set on a kind that does not read it.
func unread(kind, field string, set bool) error {
	return must(!set, "%s does not read Scenario.%s; leave it zero", kind, field)
}

// must is nil when ok holds, else the error that says which field broke
// which rule.
func must(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// firstErr returns the first non-nil error; a kind lists its checks in
// the order it reports them.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LongLived is n long-lived TCP flows sharing the bottleneck: the paper's
// central scenario (§3, §5.1). Warmup and Measure default to 20 s and
// 40 s.
type LongLived struct {
	Flows int
	// RTTSpread widens the flows' RTTs to Link.RTT +- RTTSpread/2;
	// heterogeneous RTTs are what desynchronize the flows.
	RTTSpread Duration
}

func (t LongLived) config(s Scenario, env experiment.RunEnv) (experiment.LongLivedConfig, error) {
	cfg := experiment.LongLivedConfig{
		Seed:          s.Seed,
		N:             t.Flows,
		Path:          s.Link.path(t.RTTSpread, s.Warmup, s.Measure),
		BufferPackets: s.BufferPackets,
		UseRED:        s.RED,
		Variant:       s.Sender.Variant,
		Paced:         s.Sender.Paced,
		DelayedAck:    s.Sender.DelayedAck,
		RunEnv:        env,
	}
	return cfg, firstErr(
		must(t.Flows > 0, "LongLived.Flows must be positive (got %d)", t.Flows),
		s.spread("LongLived", t.RTTSpread),
		s.redBuffer(),
	)
}

func (t LongLived) lower(s Scenario, env experiment.RunEnv) (func() SimulationResult, error) {
	cfg, err := t.config(s, env)
	return func() SimulationResult { return experiment.RunLongLived(cfg) }, err
}

// Replicated is LongLived under Replicas seeds (Scenario.Seed,
// Scenario.Seed+1, ...): utilization statistics with the spread one run
// cannot show. The replicas run concurrently, at most WithParallelism at
// once, and the result is bit-identical at any parallelism.
type Replicated struct {
	LongLived
	Replicas int
}

func (t Replicated) lower(s Scenario, env experiment.RunEnv) (func() ReplicatedResult, error) {
	cfg, err := t.config(s, env)
	return func() ReplicatedResult { return experiment.RunLongLivedReplicated(cfg, t.Replicas) },
		firstErr(err, must(t.Replicas > 0, "Replicated.Replicas must be positive (got %d)", t.Replicas))
}

// SingleFlow is one long-lived flow at exactly Link.RTT, the sawtooth of
// the paper's Figs. 2-5, with its cwnd and queue series. Its window is
// fixed at 100 s of warm-up and 200 s measured, because a single flow's
// cycle is long, so Scenario.Warmup and Measure must stay zero.
type SingleFlow struct {
	// BufferFactor sizes the buffer as BufferFactor x BDP: 1 reproduces
	// Fig. 3, less Fig. 4, more Fig. 5.
	BufferFactor float64
}

func (t SingleFlow) lower(s Scenario, env experiment.RunEnv) (func() SingleFlowResult, error) {
	cfg := experiment.SingleFlowConfig{
		Seed:         s.Seed,
		Path:         s.Link.fixedPath(0, 0),
		BufferFactor: t.BufferFactor,
		UseRED:       s.RED,
		Variant:      s.Sender.Variant,
		Paced:        s.Sender.Paced,
		DelayedAck:   s.Sender.DelayedAck,
		RunEnv:       env,
	}
	return func() SingleFlowResult { return experiment.RunSingleFlow(cfg) }, firstErr(
		must(t.BufferFactor > 0, "SingleFlow.BufferFactor must be positive (got %v)", t.BufferFactor),
		unread("SingleFlow", "BufferPackets", s.BufferPackets != 0),
		unread("SingleFlow", "Warmup", s.Warmup != 0),
		unread("SingleFlow", "Measure", s.Measure != 0),
	)
}

// Mix is long-lived flows competing with Poisson short flows, the paper's
// §5.1.3 workload at one buffer: smaller buffers keep utilization while
// the short flows complete faster (Fig. 9). Warmup and Measure default to
// 20 s and 40 s.
type Mix struct {
	LongFlows int
	// ShortLoad is the fraction of the bottleneck the short flows offer,
	// in (0, 1).
	ShortLoad float64
	// ShortSizes draws the short flows' lengths in segments; nil is
	// geometric with mean 14.
	ShortSizes SizeDist
	// MaxWindow caps the short flows' receiver window (default 43).
	MaxWindow int
	RTTSpread Duration
}

func (t Mix) lower(s Scenario, env experiment.RunEnv) (func() MixResult, error) {
	cfg := experiment.MixedConfig{
		AFCTComparisonConfig: experiment.AFCTComparisonConfig{
			Seed:       s.Seed,
			NLong:      t.LongFlows,
			ShortLoad:  t.ShortLoad,
			Sizes:      t.ShortSizes,
			Path:       s.Link.path(t.RTTSpread, s.Warmup, s.Measure),
			MaxWindow:  t.MaxWindow,
			Variant:    s.Sender.Variant,
			Paced:      s.Sender.Paced,
			DelayedAck: s.Sender.DelayedAck,
			UseRED:     s.RED,
			RunEnv:     env,
		},
		BufferPackets: s.BufferPackets,
	}
	return func() MixResult { return experiment.RunMixed(cfg) }, firstErr(
		must(t.LongFlows > 0, "Mix.LongFlows must be positive (got %d)", t.LongFlows),
		must(t.ShortLoad > 0 && t.ShortLoad < 1, "Mix.ShortLoad must be in (0, 1) (got %v)", t.ShortLoad),
		must(t.MaxWindow >= 0, "Mix.MaxWindow must not be negative (got %d)", t.MaxWindow),
		s.spread("Mix", t.RTTSpread),
		must(s.BufferPackets > 0, "Mix needs a positive Scenario.BufferPackets"),
	)
}

// TraceFlow is one recorded flow for Trace: when it starts (relative to
// the simulation start) and its size in segments.
type TraceFlow = workload.FlowSpec

// Trace replays recorded flows (see ReadFlows) at their recorded start
// times — the simulator driven by measurement data instead of an arrival
// process. Its window is the trace's own, from the first arrival to 60 s
// past the last, so Scenario.Warmup and Measure must stay zero.
type Trace struct {
	// Flows must be ordered by start time, with positive sizes.
	Flows     []TraceFlow
	MaxWindow int // receiver window cap (default 43)
	RTTSpread Duration
}

func (t Trace) lower(s Scenario, env experiment.RunEnv) (func() TraceResult, error) {
	cfg := experiment.TraceConfig{
		Seed:          s.Seed,
		Flows:         t.Flows,
		Path:          s.Link.path(t.RTTSpread, 0, 0),
		MaxWindow:     t.MaxWindow,
		BufferPackets: s.BufferPackets,
		Variant:       s.Sender.Variant,
		Paced:         s.Sender.Paced,
		DelayedAck:    s.Sender.DelayedAck,
		UseRED:        s.RED,
		RunEnv:        env,
	}
	flows := workload.ValidateFlows(t.Flows)
	return func() TraceResult { return experiment.RunTrace(cfg) }, firstErr(
		must(flows == nil, "Trace.Flows: %w", flows),
		must(t.MaxWindow >= 0, "Trace.MaxWindow must not be negative (got %d)", t.MaxWindow),
		s.spread("Trace", t.RTTSpread),
		unread("Trace", "Warmup", s.Warmup != 0),
		unread("Trace", "Measure", s.Measure != 0),
		s.redBuffer(),
	)
}
