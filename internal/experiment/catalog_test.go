package experiment

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bufsim/internal/runcache"
)

// TestCatalog holds the one experiment table to what cmd/paperexp's
// "=== id ===" headers, its run-manifest key (a digest of the id list)
// and Entry.Run's binding by field name depend on.
func TestCatalog(t *testing.T) {
	want := []string{"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "sync", "red", "pareto", "pacing", "smooth", "internet2",
		"multihop", "variants", "ecn", "harpoon", "rttspread", "codel",
		"ccfamilies", "flashcrowd", "adversarial", "probe"}
	var ids []string
	for _, e := range Catalog {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, want) {
		t.Errorf("-exp all order:\n got %v\nwant %v", ids, want)
	}

	digested := map[reflect.Type]bool{}
	for _, cfg := range digestConfigs {
		digested[reflect.TypeOf(cfg)] = true
	}
	result := reflect.TypeOf((*Result)(nil)).Elem()
	for _, e := range Catalog {
		if e.Doc == "" {
			t.Errorf("%s: no doc", e.ID)
		}
		typ := reflect.TypeOf(e.Paper)
		if reflect.TypeOf(e.Quick) != typ {
			t.Errorf("%s: Paper is a %v, Quick a %T", e.ID, typ, e.Quick)
			continue
		}
		if !digested[typ] {
			t.Errorf("%s: %v is not in digestConfigs, so neither the digest nor the paper-parameter test covers it", e.ID, typ)
		}
		if reflect.DeepEqual(e.Paper, e.Quick) {
			t.Errorf("%s: -quick runs the paper's parameters", e.ID)
		}
		// What Entry.Run binds by name must be there to bind, unset.
		if f, ok := typ.FieldByName("Seed"); !ok || f.Type.Kind() != reflect.Int64 {
			t.Errorf("%s: %v has no Seed int64", e.ID, typ)
		}
		if f, ok := typ.FieldByName("RunEnv"); !ok || f.Type != runEnvType {
			t.Errorf("%s: %v does not embed RunEnv", e.ID, typ)
		}
		for _, cfg := range []any{e.Paper, e.Quick} {
			v := reflect.ValueOf(cfg)
			if !v.FieldByName("Seed").IsZero() || !v.FieldByName("RunEnv").IsZero() {
				t.Errorf("%s: the row sets Seed or RunEnv; Run overwrites them", e.ID)
			}
		}
		run := reflect.TypeOf(e.run)
		if run == nil || run.Kind() != reflect.Func || run.NumIn() != 1 || run.In(0) != typ ||
			run.NumOut() != 1 || !run.Out(0).Implements(result) {
			t.Errorf("%s: run is a %v, want func(%v) <a Result>", e.ID, run, typ)
		}
	}

	if e, err := Lookup("fig3"); err != nil || e.ID != "fig2" {
		t.Errorf(`Lookup("fig3") = %q, %v; want the fig2 row`, e.ID, err)
	}
	_, err := Lookup("fig99")
	if err == nil {
		t.Fatal("unknown id did not error")
	}
	for _, id := range want {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name the id %q", err, id)
		}
	}
}

// TestEntryRunBindsSeedAndEnv runs the cheapest row for real: the seed
// must reach the config (a new seed is a new cache entry) and so must
// the env (the cache is the env's).
func TestEntryRunBindsSeedAndEnv(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Lookup("probe")
	if err != nil {
		t.Fatal(err)
	}
	env := RunEnv{Cache: store}
	first := e.Run(true, 1, env)
	e.Run(true, 2, env)
	again := e.Run(true, 1, env)
	if s := store.Stats(); s.Puts != 2 || s.Hits != 1 {
		t.Errorf("seeds 1, 2, 1 under one cache: %d stored, %d hits; want 2 and 1", s.Puts, s.Hits)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("replayed table differs:\n%v\n%v", first, again)
	}
	if rows := first.(ProbeLadderTable); len(rows) != 3*len(e.Quick.(ProbeLadderConfig).Limits) {
		t.Errorf("quick run returned %d rows", len(rows))
	}
}

// seedBlind names the catalog rows whose quick run draws nothing from
// its seed, with why. Every other row must move with the seed.
var seedBlind = map[string]string{
	"fig2":        "one drop-tail flow with a fixed RTT and start: nothing to draw",
	"fig4":        "one drop-tail flow with a fixed RTT and start: nothing to draw",
	"fig5":        "one drop-tail flow with a fixed RTT and start: nothing to draw",
	"adversarial": "every flow shares one RTT and one start instant, and pulse is CBR",
	"probe":       "fixed packet trains into queues with no random element",
}

// TestCatalogRowsSeedSensitive runs every catalog row at quick scale at
// seeds 1 and 2. A row whose result is the same at both is seed-blind:
// its seed means nothing, so a number it prints is one phase of a
// deterministic system, not a sample. Such a row must be on seedBlind,
// with its reason, and a row on seedBlind must still be seed-blind, so
// the list stays the set of rows a phase offset would have to fix.
func TestCatalogRowsSeedSensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every catalog row twice")
	}
	for _, e := range Catalog {
		var out [2]strings.Builder
		for i := range out {
			if err := WriteJSON(&out[i], e.Run(true, int64(i+1), RunEnv{})); err != nil {
				t.Fatal(err)
			}
		}
		same := out[0].String() == out[1].String()
		if why, listed := seedBlind[e.ID]; same && !listed {
			t.Errorf("%s: seeds 1 and 2 give the same result; draw from the seed or list the row in seedBlind", e.ID)
		} else if listed && !same {
			t.Errorf("%s moves with the seed now; take it off seedBlind (%q)", e.ID, why)
		}
	}
}
