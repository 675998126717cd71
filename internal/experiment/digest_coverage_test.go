package experiment

import (
	"context"
	"reflect"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// digestConfigs is every experiment configuration that feeds the run
// cache. A type added here is automatically swept field by field below;
// a new config that memoizes through memoRun/runSweep must be listed or
// TestDigestCoversEveryField cannot protect it.
var digestConfigs = []any{
	LongLivedConfig{},
	SingleFlowConfig{},
	WindowDistConfig{},
	ShortFlowRunConfig{},
	ShortFlowBufferConfig{},
	MixedConfig{},
	TraceConfig{},
	AFCTComparisonConfig{},
	UtilizationTableConfig{},
	ProductionConfig{},
	MinBufferConfig{},
	CoDelConfig{},
	RTTSpreadConfig{},
	SyncConfig{},
	ECNConfig{},
	VariantConfig{},
	BackboneConfig{},
	PacingConfig{},
	SmoothingConfig{},
	CCFamilyConfig{},
	ccFamilyPointConfig{},
	MultiHopConfig{},
	HarpoonConfig{},
	ProfileRunConfig{},
	FlashCrowdConfig{},
	AdversarialConfig{},
	adversarialPointConfig{},
	AdversaryScenario{},
	ProbeLadderConfig{},
}

// runEnvType is the one digest-ignored type; observerTypes are the
// handle types only it may hold.
var (
	runEnvType    = reflect.TypeOf(RunEnv{})
	observerTypes = []reflect.Type{
		reflect.TypeOf((*metrics.Registry)(nil)),
		reflect.TypeOf((*audit.Auditor)(nil)),
		reflect.TypeOf((*runcache.Store)(nil)),
		reflect.TypeOf((*context.Context)(nil)).Elem(),
	}
)

// TestDigestCoversEveryField is the cache's completeness contract,
// checked by reflection so it cannot rot as configs grow fields:
//
//   - every config embeds RunEnv, and that is the only place an observer
//     handle (registry, auditor, cache store, context) is declared;
//   - no field of RunEnv reaches the digest — otherwise turning
//     observability on would needlessly re-simulate;
//   - every other exported field does (perturbing it changes the cache
//     key) — otherwise the cache would serve stale results for a config
//     that means something different.
func TestDigestCoversEveryField(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Every RunEnv field set non-zero; the check below keeps this
	// literal complete as RunEnv grows.
	observed := reflect.ValueOf(RunEnv{
		Metrics:     metrics.New(),
		Audit:       audit.New(),
		Cache:       store,
		Resume:      true,
		Ctx:         context.Background(),
		Parallelism: 4,
		Shards:      3,
	})
	for i := 0; i < observed.NumField(); i++ {
		if observed.Field(i).IsZero() {
			t.Fatalf("RunEnv.%s is zero in the observed env; set it so the test covers it", runEnvType.Field(i).Name)
		}
	}
	for _, cfg := range digestConfigs {
		typ := reflect.TypeOf(cfg)
		t.Run(typ.Name(), func(t *testing.T) {
			if f, ok := typ.FieldByName("RunEnv"); !ok || !f.Anonymous || f.Type != runEnvType {
				t.Fatalf("%s does not embed RunEnv", typ.Name())
			}
			base := pointKey("completeness", cfg)
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					continue
				}
				mutated := reflect.New(typ).Elem()
				mutated.Set(reflect.ValueOf(cfg))
				fv := mutated.Field(i)
				if f.Type == runEnvType {
					// One field at a time, so a single leak is named.
					for j := 0; j < observed.NumField(); j++ {
						fv.Set(reflect.Zero(runEnvType))
						fv.Field(j).Set(observed.Field(j))
						if pointKey("completeness", mutated.Interface()) != base {
							t.Errorf("RunEnv.%s reaches the digest; attaching it would force a re-simulation", runEnvType.Field(j).Name)
						}
					}
					continue
				}
				for _, ot := range observerTypes {
					if f.Type == ot {
						t.Errorf("%s is a %v declared outside RunEnv", f.Name, ot)
					}
				}
				setNonZero(t, f.Name, fv)
				if pointKey("completeness", mutated.Interface()) == base {
					t.Errorf("%s: semantic field does not reach the digest; the cache would serve stale results when it changes", f.Name)
				}
			}
		})
	}
}

// setNonZero writes a non-zero value of v's type, recursing through
// slices and structs. It fails the test on a kind it has no rule for,
// which is the signal to teach it about a new field shape rather than
// silently skipping it.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.775)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		setNonZero(t, name, elem)
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			// Nested configs (a grid-point key holding a scenario) embed
			// a RunEnv too; the digest skips it at any depth, so it
			// cannot be what moves the key here either.
			if !f.IsExported() || f.Type == runEnvType {
				continue
			}
			setNonZero(t, name, v.Field(i))
		}
	case reflect.Interface:
		// The semantic interfaces in the configs are the flow-size
		// distribution and the workload source; anything else needs an
		// explicit rule here.
		for _, candidate := range []reflect.Value{
			reflect.ValueOf(workload.GeometricSize(5)),
			reflect.ValueOf(workload.PoissonSource{Load: 0.5, Sizes: workload.FixedSize(9)}),
		} {
			if candidate.Type().Implements(v.Type()) {
				v.Set(candidate)
				return
			}
		}
		t.Fatalf("%s: no perturbation rule for interface %v", name, v.Type())
	default:
		t.Fatalf("%s: no perturbation rule for kind %v", name, v.Kind())
	}
}

// TestCacheKeysStable pins four literal cache keys recorded before the
// observer fields moved into RunEnv: one run kind, the kind the
// short-flow scenario kept when it lowered onto the profile body, a
// nested grid-point key, and a sweep checkpoint key. cacheSalt did not
// change with that refactor, so neither may any key — a mismatch here
// means every warm cache out there just went cold (or, worse, that a
// semantic field stopped reaching the digest). After a deliberate
// cacheSalt bump, re-record all four.
func TestCacheKeysStable(t *testing.T) {
	env := RunEnv{Metrics: metrics.New(), Audit: audit.New(), Resume: true,
		Ctx: context.Background(), Parallelism: 4, Shards: 3}
	for _, tc := range []struct {
		kind string
		cfg  any
		want string
	}{
		{"long-lived", LongLivedConfig{
			Seed: 7, N: 40, BottleneckRate: 20 * units.Mbps, BufferPackets: 25,
			Variant: tcp.Cubic, Paced: true,
			Warmup: 2 * units.Second, Measure: 5 * units.Second, RunEnv: env,
		}.withDefaults(), "71d1d8a99243be2ab3f865b1d057c513bc510aaa22e3f9c31599a7a7c2e2df8e"},
		{"short-flow", ShortFlowRunConfig{
			Seed: 3, Rate: 20 * units.Mbps, Load: 0.7, FlowLength: 14, BufferPackets: 50,
			Warmup: 4 * units.Second, Measure: 10 * units.Second, RunEnv: env,
		}.withDefaults(), "8018c65d394e812434203b9be8e29781dd8362be134bcf6c27810f39a86c9a2c"},
		{"mixed", mixedKey{
			Base: AFCTComparisonConfig{
				Seed: 5, NLong: 30, Sizes: workload.GeometricSize(14),
				BottleneckRate: 20 * units.Mbps, RunEnv: env,
			}.withDefaults(),
			Label: "RTT*C", Buffer: 250,
		}, "97469bb113c2b70a554237ea348673d291e0cad6a565fd319042d6f1857d7079"},
		{"sweep:utilization-table", UtilizationTableConfig{
			Seed: 1, Ns: []int{50, 100}, Factors: []float64{0.5, 1},
			BottleneckRate: 20 * units.Mbps, UseRED: true, RunEnv: env,
		}.withDefaults(), "ee8fa6e9ba3a287755f807df6a925d1a54eda6115ad514970b7ac34f11ada438"},
	} {
		if got := pointKey(tc.kind, tc.cfg); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.kind, got, tc.want)
		}
	}
}
