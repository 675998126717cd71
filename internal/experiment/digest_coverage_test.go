package experiment

import (
	"context"
	"reflect"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// digestConfigs is every experiment configuration that feeds the run
// cache, as its own defaults leave the zero value: the parameters a
// full-scale (not -quick) run uses, which TestPaperParameters pins. A
// config with no defaults of its own (it is lowered into one that has
// them, or is a cache key built from resolved values) stands as it is.
// The digest tests sweep the zero value of each type field by field; a
// new config that memoizes through memoRun/sweep must be listed or
// neither can protect it.
var digestConfigs = []any{
	LongLivedConfig{}.withDefaults(),
	SingleFlowConfig{}.withDefaults(),
	WindowDistConfig{}.withDefaults(),
	ShortFlowBufferConfig{}.withDefaults(),
	MixedConfig{},
	TraceConfig{}.withDefaults(),
	AFCTComparisonConfig{}.withDefaults(),
	UtilizationTableConfig{}.withDefaults(),
	ProductionConfig{}.withDefaults(),
	MinBufferConfig{}.withDefaults(),
	CoDelConfig{}.withDefaults(),
	RTTSpreadConfig{}.withDefaults(),
	SyncConfig{}.withDefaults(),
	ECNConfig{}.withDefaults(),
	VariantConfig{}.withDefaults(),
	BackboneConfig{}.withDefaults(),
	PacingConfig{}.withDefaults(),
	SmoothingConfig{}.withDefaults(),
	CCFamilyConfig{}.withDefaults(),
	ccFamilyPointConfig{},
	MultiHopConfig{}.withDefaults(),
	HarpoonConfig{}.withDefaults(),
	ProfileRunConfig{}.withDefaults(),
	FlashCrowdConfig{}.withDefaults(),
	AdversarialConfig{}.withDefaults(),
	adversarialPointConfig{},
	AdversaryScenario{}.withDefaults(),
	ProbeLadderConfig{}.withDefaults(),
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
//     that means something different. The fields of an embedded struct
//     (Path, a config inside a config) are perturbed one at a time, so a
//     leak is reported as Path.RTTMax, not Path.
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
		Ctx:         context.Background(),
		Parallelism: 4,
	})
	for i := 0; i < observed.NumField(); i++ {
		if observed.Field(i).IsZero() {
			t.Fatalf("RunEnv.%s is zero in the observed env; set it so the test covers it", runEnvType.Field(i).Name)
		}
	}
	for _, defaulted := range digestConfigs {
		typ := reflect.TypeOf(defaulted)
		cfg := reflect.Zero(typ).Interface()
		t.Run(typ.Name(), func(t *testing.T) {
			if f, ok := typ.FieldByName("RunEnv"); !ok || !f.Anonymous || f.Type != runEnvType {
				t.Fatalf("%s does not embed RunEnv", typ.Name())
			}
			base := pointKey("completeness", cfg)
			// sweep perturbs every field of the struct at index path at
			// (nil: the config itself) in a fresh copy of cfg.
			var sweep func(prefix string, st reflect.Type, at []int)
			sweep = func(prefix string, st reflect.Type, at []int) {
				for i := 0; i < st.NumField(); i++ {
					f, name := st.Field(i), prefix+st.Field(i).Name
					if !f.IsExported() {
						continue
					}
					mutated := reflect.New(typ).Elem()
					mutated.Set(reflect.ValueOf(cfg))
					fv := mutated.FieldByIndex(append(at[:len(at):len(at)], i))
					switch {
					case f.Type == runEnvType:
						// One field at a time, so a single leak is named.
						for j := 0; j < observed.NumField(); j++ {
							fv.Set(reflect.Zero(runEnvType))
							fv.Field(j).Set(observed.Field(j))
							if pointKey("completeness", mutated.Interface()) != base {
								t.Errorf("%s.%s reaches the digest; attaching it would force a re-simulation", name, runEnvType.Field(j).Name)
							}
						}
						continue
					case f.Anonymous && f.Type.Kind() == reflect.Struct:
						sweep(name+".", f.Type, append(at[:len(at):len(at)], i))
						continue
					}
					for _, ot := range observerTypes {
						if f.Type == ot {
							t.Errorf("%s is a %v declared outside RunEnv", name, ot)
						}
					}
					setNonZero(t, name, fv)
					if pointKey("completeness", mutated.Interface()) == base {
						t.Errorf("%s: semantic field does not reach the digest; the cache would serve stale results when it changes", name)
					}
				}
			}
			sweep("", typ, nil)
		})
	}
}

// scenarioLike is how the apparatus has been spelled in this package:
// Scenario's own names (Seed, Path, Queue, Sender), the fields of its
// Path and Sender, the queue-discipline switches Queue replaced, and the
// names the dumbbell went by in the configs that said it differently.
var scenarioLike = map[string]bool{
	"Rate": true, "LinkRate": true, "MeanRTT": true, "RTT": true,
	"UseRED": true, "ECN": true, "UseCoDel": true,
}

func init() {
	for _, v := range []any{Scenario{}, Path{}, Sender{}} {
		for i, t := 0, reflect.TypeOf(v); i < t.NumField(); i++ {
			scenarioLike[t.Field(i).Name] = true
		}
	}
}

// notAScenario lists the fields allowed to look like Scenario's anyway.
var notAScenario = map[string]bool{
	// The probe ladder drives a bare queue at a service rate: there is
	// no dumbbell and no sender, so nothing of a Scenario to embed. Its
	// seed feeds the probed RED queues only.
	"ProbeLadderConfig.Seed":        true,
	"ProbeLadderConfig.Rate":        true,
	"ProbeLadderConfig.SegmentSize": true,
}

// TestConfigsDeclarePathOnce keeps the apparatus said once — the whole
// Scenario now, not only the Path it was named for: a config describes
// the seed, the dumbbell, the queue discipline and the sender by
// embedding Scenario, never by declaring a field of its own under one of
// their names (or an old spelling of one), at any depth of embedding.
// Axis slices (Variants) are other names and stay legal.
func TestConfigsDeclarePathOnce(t *testing.T) {
	scenarioType := reflect.TypeOf(Scenario{})
	var walk func(t *testing.T, owner string, st reflect.Type)
	walk = func(t *testing.T, owner string, st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			switch {
			case f.Type == scenarioType || f.Type == runEnvType:
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				walk(t, f.Type.Name(), f.Type)
			case scenarioLike[f.Name] && !notAScenario[owner+"."+f.Name]:
				t.Errorf("%s.%s re-declares part of the scenario; embed Scenario (or name the exception in notAScenario)", owner, f.Name)
			}
		}
	}
	for _, cfg := range digestConfigs {
		typ := reflect.TypeOf(cfg)
		t.Run(typ.Name(), func(t *testing.T) { walk(t, typ.Name(), typ) })
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

// TestCacheKeysStable pins five literal cache keys, recorded when
// cacheSalt became bufsim-results-v10 (a short flow's teardown began to
// wait for its sender, which moved the results of short flows with
// delayed ACKs): one run kind,
// the short-flow point as the profile scenario it is, a key nesting one
// config in another, a grid point three embeddings deep, and a sweep
// checkpoint key. While cacheSalt stands, so must every key — a mismatch
// here means every warm cache out there just went cold (or, worse, that
// a semantic field stopped reaching the digest). After a deliberate
// cacheSalt bump, re-record all five, in that commit and no other. The
// profile key alone was re-recorded under this salt when sources came to
// carry a window cap instead of a TCP template: the key's shape changed,
// no result did, so its old entries go cold and none is misread.
func TestCacheKeysStable(t *testing.T) {
	env := RunEnv{Metrics: metrics.New(), Audit: audit.New(),
		Ctx: context.Background(), Parallelism: 4}
	for _, tc := range []struct {
		kind string
		cfg  any
		want string
	}{
		{"long-lived", LongLivedConfig{
			Scenario: Scenario{Seed: 7, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second, Measure: 5 * units.Second}, Sender: Sender{Variant: tcp.Cubic, Paced: true}}, N: 40, BufferPackets: 25,
			RunEnv: env,
		}.withDefaults(), "22b0ad717125bd6b261097f2cdfce38c21368785bcb077a2eccd6cb2a0183031"},
		{"profile", shortFlowRun(3, 20*units.Mbps, 0.7, 14, 50,
			4*units.Second, 10*units.Second, env).withDefaults(), "d46ed1f235498385425b61398cb0256e70298648c0c7f3861fd0aacbdc83f2b8"},
		{"mixed", mixedKey{
			Base: MixedConfig{AFCTComparisonConfig{
				Scenario: Scenario{Seed: 5, Path: Path{BottleneckRate: 20 * units.Mbps}}, NLong: 30, Sizes: workload.GeometricSize(14), RunEnv: env,
			}.withDefaults(), 250},
			Label: "RTT*C",
		}, "af44410f619aeb492c68740219f513a5b02b3a534b062d5cfaa6d22217721875"},
		{"adversarial", adversarialPointConfig{AdversaryScenario{
			Scenario: Scenario{Seed: 2, Path: Path{BottleneckRate: 20 * units.Mbps}}, Pattern: adversary.PatternSyncAIMD, BufferPackets: 25,
			AdversaryCohort: AdversaryCohort{N: 8},
			RunEnv:          env,
		}.withDefaults(), 0.1}, "558a2686480cdf7d8c672bfabe38e799719dd152fd7c0c3d27abd19c020dbe19"},
		{"sweep:utilization-table", UtilizationTableConfig{
			Scenario: Scenario{Seed: 1, Path: Path{BottleneckRate: 20 * units.Mbps}, Queue: RED}, Ns: []int{50, 100}, Factors: []float64{0.5, 1}, RunEnv: env,
		}.withDefaults(), "6ed348360ebc32a431d20da769f9cba5597c409a95fa37f2931099386b898986"},
	} {
		if got := pointKey(tc.kind, tc.cfg); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.kind, got, tc.want)
		}
	}
}
