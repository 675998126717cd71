package experiment

import (
	"fmt"
	"reflect"
	"strings"

	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// Entry is one experiment id, said once: what it shows, its parameters
// at the paper's scale and at the -quick scale, and the typed driver
// both lower onto. cmd/paperexp's -exp and the root package's
// BenchmarkPaper are loops over Catalog.
type Entry struct {
	ID, Doc string
	// Paper and Quick are the driver's config at the two scales, as
	// values of one config type. Paper is mostly the zero value: the
	// published defaults live beside each config, and
	// testdata/golden/paper_parameters.txt pins them resolved. Quick
	// spells out what -quick shrinks (quick_parameters.txt). Seed and
	// RunEnv are left unset in both: Run binds them.
	Paper, Quick any
	// run is the typed driver, func(C) R for the configs' type C and some
	// Result R; TestCatalog holds every row to that shape.
	run any
	// quicken, where a row has one, finishes the quick config when the
	// row runs: what a literal cannot say.
	quicken func(cfg any) any
}

// Run runs the row at one scale and returns what its driver returns,
// as a Result (cmd/paperexp's figure writers assert the concrete type
// back). Seed and env are bound the same way for every row, by field
// name: every config declares Seed and embeds RunEnv.
func (e Entry) Run(quick bool, seed int64, env RunEnv) Result {
	in := e.Paper
	if quick {
		in = e.Quick
		if e.quicken != nil {
			in = e.quicken(in)
		}
	}
	cfg := reflect.New(reflect.TypeOf(in)).Elem()
	cfg.Set(reflect.ValueOf(in))
	cfg.FieldByName("Seed").SetInt(seed)
	cfg.FieldByName("RunEnv").Set(reflect.ValueOf(env))
	return reflect.ValueOf(e.run).Call([]reflect.Value{cfg})[0].Interface().(Result)
}

// Lookup returns the catalog row for an experiment id. fig3 is the same
// run as fig2 (the paper shows its sawtooth twice).
func Lookup(id string) (Entry, error) {
	if id == "fig3" {
		id = "fig2"
	}
	ids := make([]string, len(Catalog))
	for i, e := range Catalog {
		if e.ID == id {
			return e, nil
		}
		ids[i] = e.ID
	}
	return Entry{}, fmt.Errorf("unknown experiment %q (want %s or all)", id, strings.Join(ids, ", "))
}

// compressFlashCrowd replays the row's profile — the flashcrowd preset
// unless the caller put another shape there — four times faster. It runs
// with the row, so the package builds no profile at init.
func compressFlashCrowd(c any) any {
	cfg := c.(FlashCrowdConfig)
	if len(cfg.Profile.Arrival) == 0 && len(cfg.Profile.Population) == 0 {
		cfg.Profile = profile.FlashCrowd.Profile()
	}
	compressed, err := cfg.Profile.Compress(4)
	if err != nil {
		panic(err) // a constant positive factor cannot be rejected
	}
	cfg.Profile = compressed
	return cfg
}

// The -quick beds of the rows that are one experiment said two or three
// ways: the sawtooths differ by BufferFactor, Fig. 9 and its Pareto twin
// by Sizes, Fig. 10 and its RED twin by UseRED.
var (
	quickSawtoothPath = Path{Warmup: 60 * units.Second, Measure: 60 * units.Second}
	quickMixPath      = Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}
	quickTablePath    = Path{BottleneckRate: 20 * units.Mbps, Warmup: 8 * units.Second, Measure: 15 * units.Second}
)

// Catalog is every experiment id in the order -exp all runs them: the
// paper's Figs. 2-11, its ablations, and the extensions beyond it.
var Catalog = []Entry{
	{ID: "fig2", Doc: "single-flow sawtooth at B = RTT x C, the rule of thumb (fig3 is the same run)",
		Paper: SingleFlowConfig{BufferFactor: 1},
		Quick: SingleFlowConfig{BufferFactor: 1, Path: quickSawtoothPath},
		run:   RunSingleFlow},
	{ID: "fig4", Doc: "underbuffered single flow",
		Paper: SingleFlowConfig{BufferFactor: 0.125},
		Quick: SingleFlowConfig{BufferFactor: 0.125, Path: quickSawtoothPath},
		run:   RunSingleFlow},
	{ID: "fig5", Doc: "overbuffered single flow",
		Paper: SingleFlowConfig{BufferFactor: 2},
		Quick: SingleFlowConfig{BufferFactor: 2, Path: quickSawtoothPath},
		run:   RunSingleFlow},
	{ID: "fig6", Doc: "aggregate-window distribution vs Gaussian",
		Paper: WindowDistConfig{N: 200},
		Quick: WindowDistConfig{N: 80, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 30 * units.Second}},
		run:   RunWindowDist},
	{ID: "fig7", Doc: "min buffer vs n for utilization targets",
		Paper: MinBufferConfig{},
		Quick: MinBufferConfig{
			Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 8 * units.Second, Measure: 15 * units.Second},
			Ns:   []int{25, 50, 100, 200}, Targets: []float64{0.98, 0.995}, LadderPoints: 7,
		},
		run: RunMinBufferSweep},
	{ID: "fig8", Doc: "min buffer for short flows vs the M/G/1 model",
		// The figure's x-axis: sweep the flow length (burst structure).
		Paper: ShortFlowBufferConfig{FlowLens: []int64{6, 14, 30, 62}},
		Quick: ShortFlowBufferConfig{
			Rates: []units.BitRate{20 * units.Mbps, 60 * units.Mbps},
			Path:  Path{Warmup: 5 * units.Second, Measure: 15 * units.Second},
		},
		run: RunShortFlowBuffer},
	{ID: "fig9", Doc: "AFCT: RTTxC vs RTTxC/sqrt(n) buffers",
		Paper: AFCTComparisonConfig{Sizes: workload.GeometricSize(14)},
		Quick: AFCTComparisonConfig{Sizes: workload.GeometricSize(14), NLong: 60, Path: quickMixPath},
		run:   RunAFCTComparison},
	{ID: "fig10", Doc: "the Cisco-GSR utilization table (model vs sim)",
		Paper: UtilizationTableConfig{},
		Quick: UtilizationTableConfig{Ns: []int{50, 100}, Factors: []float64{0.5, 1, 2}, Path: quickTablePath},
		run:   RunUtilizationTable},
	{ID: "fig11", Doc: "the production-mix table",
		Paper: ProductionConfig{},
		Quick: ProductionConfig{NLong: 30, Buffers: []int{8, 46, 300},
			Path: Path{Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run: RunProduction},
	{ID: "sync", Doc: "synchronization vs flow count ablation",
		Paper: SyncConfig{},
		Quick: SyncConfig{Ns: []int{5, 30, 120},
			Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run: RunSyncAblation},
	{ID: "red", Doc: "fig10 under RED",
		Paper: UtilizationTableConfig{UseRED: true},
		Quick: UtilizationTableConfig{UseRED: true, Ns: []int{50, 100}, Factors: []float64{0.5, 1, 2}, Path: quickTablePath},
		run:   RunUtilizationTable},
	{ID: "pareto", Doc: "fig9 with bounded-Pareto flow sizes",
		Paper: AFCTComparisonConfig{Sizes: workload.ParetoSize{Shape: 1.2, Min: 2, Max: 2000}},
		Quick: AFCTComparisonConfig{Sizes: workload.ParetoSize{Shape: 1.2, Min: 2, Max: 2000}, NLong: 60, Path: quickMixPath},
		run:   RunAFCTComparison},
	{ID: "pacing", Doc: "paced vs ACK-clocked senders at tiny buffers",
		Paper: PacingConfig{},
		Quick: PacingConfig{N: 20, BufferFactors: []float64{0.25, 1},
			Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run: RunPacingAblation},
	{ID: "smooth", Doc: "slow access links vs the M/D/1 bound",
		Paper: SmoothingConfig{},
		Quick: SmoothingConfig{Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 8 * units.Second, Measure: 30 * units.Second}},
		run:   RunSmoothing},
	{ID: "internet2", Doc: "the §5.3 backbone at 0.5% of a 1s buffer",
		Paper: BackboneConfig{},
		Quick: BackboneConfig{N: 600, Path: Path{BottleneckRate: 600 * units.Mbps, Warmup: 8 * units.Second, Measure: 15 * units.Second}},
		run:   RunBackbone},
	{ID: "multihop", Doc: "per-link sqrt(n) rule on two bottlenecks",
		Paper: MultiHopConfig{},
		Quick: MultiHopConfig{NPerGroup: 40, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run:   RunMultiHop},
	{ID: "variants", Doc: "Reno / NewReno / SACK / Tahoe robustness",
		Paper: VariantConfig{},
		Quick: VariantConfig{N: 60, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run:   RunVariantAblation},
	{ID: "ecn", Doc: "RED marking vs dropping",
		Paper: ECNConfig{},
		Quick: ECNConfig{N: 100, Path: Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run:   RunECN},
	{ID: "harpoon", Doc: "closed-loop session traffic (§5.2 methodology)",
		Paper: HarpoonConfig{},
		Quick: HarpoonConfig{Sessions: 500, Path: Path{BottleneckRate: 40 * units.Mbps, Warmup: 15 * units.Second, Measure: 25 * units.Second}},
		run:   RunHarpoon},
	{ID: "rttspread", Doc: "RTT heterogeneity vs synchronization (§3)",
		Paper: RTTSpreadConfig{},
		Quick: RTTSpreadConfig{N: 100, Path: Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 25 * units.Second}},
		run:   RunRTTSpread},
	{ID: "codel", Doc: "CoDel vs drop-tail at the sqrt(n) rule and at RTTxC",
		Paper: CoDelConfig{},
		Quick: CoDelConfig{N: 100, Path: Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		run:   RunCoDel},
	{ID: "ccfamilies", Doc: "buffer requirement vs n per CC family (CUBIC and BBR against the 2004 sqrt rule)",
		Paper: CCFamilyConfig{},
		Quick: CCFamilyConfig{Ns: []int{25, 50, 100},
			Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 8 * units.Second, Measure: 15 * units.Second}},
		run: RunCCFamily},
	{ID: "flashcrowd", Doc: "buffer sizes vs a surge where arrivals and the long-lived population n(t) spike together (-workload swaps the profile shape)",
		Paper: FlashCrowdConfig{},
		Quick: FlashCrowdConfig{Stations: 20, PeakFlows: 8, Buffers: []int{6, 25, 100, 250},
			Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second}},
		run: RunFlashCrowd, quicken: compressFlashCrowd},
	{ID: "adversarial", Doc: "worst-case traffic vs the buffer ladder: pulse trains, lockstep AIMD, a loaded parking lot (-adversary restricts to one pattern)",
		Paper: AdversarialConfig{},
		Quick: AdversarialConfig{BufferFactors: []float64{0.1, 0.5, 1.0}, AdversaryCohort: AdversaryCohort{N: 8, Hops: 2,
			Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second, Measure: 6 * units.Second}}},
		run: RunAdversarial},
	{ID: "probe", Doc: "black-box probe: estimate buffer size and classify the drop discipline of known queues, then score the answers",
		Paper: ProbeLadderConfig{},
		Quick: ProbeLadderConfig{Limits: []int{16, 64, 256}},
		run:   RunProbeLadder},
}
