package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufsim/internal/units"
)

func TestLoad(t *testing.T) {
	const doc = `{
		"name": "launch-day",
		"arrival":    [{"t": "0s", "v": 0.1}, {"t": "30s", "v": 1.0}, {"t": 60, "v": 0.1}],
		"population": [{"t": 0, "v": 2}, {"t": "45s", "v": 6}]
	}`
	p, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "launch-day" {
		t.Errorf("Name = %q", p.Name)
	}
	// Duration strings and bare seconds must land on the same axis.
	if got := p.Arrival[1].T; got != 30*units.Second {
		t.Errorf("arrival[1].T = %v, want 30s", got)
	}
	if got := p.Arrival[2].T; got != 60*units.Second {
		t.Errorf("arrival[2].T = %v, want 60s (bare number of seconds)", got)
	}
	if got := p.Population[1].V; got != 6 {
		t.Errorf("population[1].V = %v, want 6", got)
	}
}

func TestLoadDefaultsAndCompress(t *testing.T) {
	const doc = `{
		"arrival": [{"t": 0, "v": 1}, {"t": 60, "v": 2}],
		"compress": 4
	}`
	p, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "custom" {
		t.Errorf("Name = %q, want %q default", p.Name, "custom")
	}
	if got := p.Arrival[1].T; got != 15*units.Second {
		t.Errorf("compressed end = %v, want 15s", got)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown field", `{"arrival": [{"t": 0, "v": 1}], "arival": []}`, "unknown field"},
		{"bad time", `{"arrival": [{"t": true, "v": 1}]}`, `"t" must be a duration string`},
		{"missing time", `{"arrival": [{"v": 1}]}`, `missing "t"`},
		{"validation", `{"arrival": [{"t": 0, "v": -1}]}`, "negative value"},
		{"no traffic", `{"name": "empty"}`, "describes no traffic"},
		{"bad compress", `{"arrival": [{"t": 0, "v": 1}], "compress": -2}`, "compress"},
		{"time out of range", `{"arrival": [{"t": 0, "v": 1}, {"t": 1e300, "v": 1}]}`, `duration "1e300" out of range`},
		{"time not finite", `{"arrival": [{"t": "NaNs", "v": 1}]}`, `duration "NaNs" out of range`},
		// Validation runs on the compressed curve: this factor used to put
		// the second point at -9.2e12 ms and load without an error.
		{"compress out of range", `{"arrival": [{"t": 0, "v": 1}, {"t": "30s", "v": 1}], "compress": 1e-300}`, "leaves the representable time range"},
		{"compress collapses a segment", `{"arrival": [{"t": 0, "v": 1}, {"t": "1ns", "v": 2}], "compress": 10}`, "zero-duration segment"},
		{"not json", `arrival: [0, 1]`, "profile:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(c.doc))
			if err == nil {
				t.Fatalf("Load did not error, want %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Load error = %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestFromArg(t *testing.T) {
	// A preset name resolves through the registry.
	p, err := FromArg("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "flashcrowd" {
		t.Errorf("preset arg gave profile %q", p.Name)
	}

	// A .json path loads the file.
	dir := t.TempDir()
	path := filepath.Join(dir, "shape.json")
	if err := os.WriteFile(path, []byte(`{"name":"disk","arrival":[{"t":0,"v":1},{"t":10,"v":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = FromArg(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "disk" {
		t.Errorf("file arg gave profile %q", p.Name)
	}

	// An unknown name errors and lists the presets so the user can
	// correct a typo without reading the docs.
	_, err = FromArg("tsunami")
	if err == nil {
		t.Fatal("FromArg(\"tsunami\") did not error")
	}
	for _, name := range ProfileNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list preset %q", err, name)
		}
	}

	// A missing .json path errors with the file problem, not a preset
	// lookup failure.
	_, err = FromArg(filepath.Join(dir, "nosuch.json"))
	if err == nil || !strings.Contains(err.Error(), "nosuch.json") {
		t.Errorf("missing file error = %v, want path mention", err)
	}
}

// FuzzLoad feeds Load arbitrary documents: it must never panic, and
// whatever it accepts is a valid profile whose times all lie in range.
func FuzzLoad(f *testing.F) {
	for _, seed := range []string{
		`{"name": "x", "arrival": [{"t": "0s", "v": 0.1}, {"t": 30, "v": 1}], "population": [{"t": 0, "v": 2}]}`,
		`{"arrival": [{"t": 0, "v": 1}, {"t": 60, "v": 2}], "compress": 4}`,
		`{"arrival": [{"t": 0, "v": 1}, {"t": "30s", "v": 1}], "compress": 1e-300}`,
		`{"arrival": [{"t": 0, "v": 1}, {"t": "1ns", "v": 2}], "compress": 10}`,
		`{"arrival": [{"t": "NaNs", "v": 1}]}`,
		`{"arrival": [{"t": 1e300, "v": 1}]}`,
		`{"population": [{"t": 0, "v": 1}], "compress": 1e300}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Load accepted what Validate rejects: %v", err)
		}
		for _, c := range []Curve{p.Arrival, p.Population} {
			for _, pt := range c {
				if pt.T < 0 {
					t.Fatalf("Load accepted a point at %v", pt.T)
				}
			}
		}
	})
}
