package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// parameterLines appends one "Type.Field=value" line per non-zero
// exported field of v, flattening embedded structs under the outer
// type's name and skipping RunEnv (observers are not parameters).
func parameterLines(lines []string, typeName string, v reflect.Value) []string {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case !f.IsExported() || f.Type == runEnvType || fv.IsZero():
		case f.Anonymous && fv.Kind() == reflect.Struct:
			lines = parameterLines(lines, typeName, fv)
		default:
			lines = append(lines, fmt.Sprintf("%s.%s=%v", typeName, f.Name, fv.Interface()))
		}
	}
	return lines
}

// TestPaperParameters pins the paper-scale parameters. -quick overrides
// rates, warm-ups and windows, so nothing else in the suite would notice
// a default sliding (Measure from 40 s to 60 s, a 5 ms bottleneck delay
// becoming 10 ms). testdata/golden/paper_parameters.txt is the parameter
// table EXPERIMENTS.md points at; re-record it with -update only for a
// deliberate change of an experiment's published parameters.
func TestPaperParameters(t *testing.T) {
	var lines []string
	for _, cfg := range digestConfigs {
		lines = parameterLines(lines, reflect.TypeOf(cfg).Name(), reflect.ValueOf(cfg))
	}
	checkParameterFile(t, "paper_parameters.txt", lines)
}

// TestQuickParameters pins what -quick means: the catalog's quick
// configs, one "id:Type.Field=value" line per field a row sets (the rest
// is the paper's, above), in testdata/golden/quick_parameters.txt.
// cmd/paperexp -quick and BenchmarkPaper both run exactly these.
func TestQuickParameters(t *testing.T) {
	var lines []string
	for _, e := range Catalog {
		cfg := e.Quick
		if e.quicken != nil {
			cfg = e.quicken(cfg)
		}
		lines = parameterLines(lines, e.ID+":"+reflect.TypeOf(cfg).Name(), reflect.ValueOf(cfg))
	}
	checkParameterFile(t, "quick_parameters.txt", lines)
}

// checkParameterFile compares the lines, sorted, against a file under
// testdata/golden (or rewrites it under -update), naming each line that
// appeared or went.
func checkParameterFile(t *testing.T, name string, lines []string) {
	t.Helper()
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if got == string(want) {
		return
	}
	pinned := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		pinned[l] = true
	}
	for _, l := range lines {
		if !pinned[l] {
			t.Errorf("not in %s: %s", path, l)
		}
		delete(pinned, l)
	}
	for l := range pinned {
		t.Errorf("gone from the parameters: %s", l)
	}
}
