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

// pathLike is how a dumbbell's description has been spelled in this
// package: Path's own fields, and the names they went by in the configs
// that said it differently.
var pathLike = map[string]bool{"Rate": true, "LinkRate": true, "MeanRTT": true, "RTT": true}

func init() {
	for i, t := 0, reflect.TypeOf(Path{}); i < t.NumField(); i++ {
		pathLike[t.Field(i).Name] = true
	}
}

// notADumbbell lists the fields allowed to look like Path's anyway.
var notADumbbell = map[string]bool{
	// The probe ladder drives a bare queue at a service rate: there is
	// no path, so nothing of one to embed.
	"ProbeLadderConfig.Rate":        true,
	"ProbeLadderConfig.SegmentSize": true,
}

// TestConfigsDeclarePathOnce keeps the dumbbell said once: a config
// describes it by embedding Path, never by declaring a field of its own
// under one of Path's names (or an old spelling of one), at any depth of
// embedding.
func TestConfigsDeclarePathOnce(t *testing.T) {
	pathType := reflect.TypeOf(Path{})
	var walk func(t *testing.T, owner string, st reflect.Type)
	walk = func(t *testing.T, owner string, st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			switch {
			case f.Type == pathType || f.Type == runEnvType:
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				walk(t, f.Type.Name(), f.Type)
			case pathLike[f.Name] && !notADumbbell[owner+"."+f.Name]:
				t.Errorf("%s.%s re-declares part of the path; embed Path (or name the exception in notADumbbell)", owner, f.Name)
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
// cacheSalt became bufsim-results-v2 (the configs' dumbbell description
// moved into the embedded Path, which moved every key): one run kind,
// the short-flow point as the profile scenario it is, a key nesting one
// config in another, a grid point three embeddings deep, and a sweep
// checkpoint key. While cacheSalt stands, so must every key — a mismatch
// here means every warm cache out there just went cold (or, worse, that
// a semantic field stopped reaching the digest). After a deliberate
// cacheSalt bump, re-record all five, in that commit and no other.
func TestCacheKeysStable(t *testing.T) {
	env := RunEnv{Metrics: metrics.New(), Audit: audit.New(), Resume: true,
		Ctx: context.Background(), Parallelism: 4, Shards: 3}
	for _, tc := range []struct {
		kind string
		cfg  any
		want string
	}{
		{"long-lived", LongLivedConfig{
			Seed: 7, N: 40, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second, Measure: 5 * units.Second}, BufferPackets: 25,
			Variant: tcp.Cubic, Paced: true,
			RunEnv: env,
		}.withDefaults(), "be6c9d770d7382c899ca4e532feb987c40469d3f9c3b5925375c06a9f8e714a2"},
		{"profile", shortFlowRun(3, 20*units.Mbps, 0.7, 14, 50,
			4*units.Second, 10*units.Second, env).withDefaults(), "c64c081f2c6287c404354f9e756ab6a45556ee692f10a055314084286afac176"},
		{"mixed", mixedKey{
			Base: MixedConfig{AFCTComparisonConfig{
				Seed: 5, NLong: 30, Sizes: workload.GeometricSize(14),
				Path: Path{BottleneckRate: 20 * units.Mbps}, RunEnv: env,
			}.withDefaults(), 250},
			Label: "RTT*C",
		}, "acd978bea0eed37462dd515174c5e48a400703775f8a059cf1b5660765d81ae5"},
		{"adversarial", adversarialPointConfig{AdversaryScenario{
			Seed: 2, Pattern: adversary.PatternSyncAIMD, BufferPackets: 25,
			AdversaryCohort: AdversaryCohort{N: 8, Path: Path{BottleneckRate: 20 * units.Mbps}}.withDefaults(),
			RunEnv:          env,
		}, 0.1}, "414a33615314ee31ea9c81a3d29c722430995c50b7f31e41cd6c02d4efb2c83a"},
		{"sweep:utilization-table", UtilizationTableConfig{
			Seed: 1, Ns: []int{50, 100}, Factors: []float64{0.5, 1},
			Path: Path{BottleneckRate: 20 * units.Mbps}, UseRED: true, RunEnv: env,
		}.withDefaults(), "c13a346cc1840caf50bc6745f191b9c9eee5c1b68addee328163e7a20d779a1d"},
	} {
		if got := pointKey(tc.kind, tc.cfg); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.kind, got, tc.want)
		}
	}
}
