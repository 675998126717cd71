package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"bufsim/internal/units"
)

// profileFile is the JSON schema for a profile on disk: curves as
// arrays of {"t": offset, "v": value} control points, where offsets are
// duration strings in the package's notation ("30s", "1500ms") or bare
// numbers of seconds.
//
//	{
//	  "name": "launch-day",
//	  "arrival":    [{"t": "0s", "v": 0.1}, {"t": "30s", "v": 1.0}],
//	  "population": [{"t": "0s", "v": 1.0}],
//	  "compress": 2.0
//	}
//
// "compress" (optional) divides every control-point time, replaying the
// shape faster; "arrival" and "population" follow Profile's semantics.
type profileFile struct {
	Name       string      `json:"name"`
	Arrival    []filePoint `json:"arrival"`
	Population []filePoint `json:"population"`
	Compress   float64     `json:"compress"`
}

type filePoint struct {
	T json.RawMessage `json:"t"`
	V float64         `json:"v"`
}

// Load reads and validates a JSON profile.
func Load(r io.Reader) (Profile, error) {
	var pf profileFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pf); err != nil {
		return Profile{}, fmt.Errorf("profile: %v", err)
	}
	arrival, err := curveFromFile("arrival", pf.Arrival)
	if err != nil {
		return Profile{}, err
	}
	population, err := curveFromFile("population", pf.Population)
	if err != nil {
		return Profile{}, err
	}
	p := Profile{Name: pf.Name, Arrival: arrival, Population: population}
	if p.Name == "" {
		p.Name = "custom"
	}
	if pf.Compress != 0 {
		if p, err = p.Compress(pf.Compress); err != nil {
			return Profile{}, err
		}
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

func curveFromFile(name string, points []filePoint) (Curve, error) {
	if len(points) == 0 {
		return nil, nil
	}
	c := make(Curve, len(points))
	for i, fp := range points {
		t, err := units.ParseDurationOrSeconds("t", fp.T)
		if err != nil {
			return nil, fmt.Errorf("profile: %s point %d: %v", name, i, err)
		}
		c[i] = Point{T: t, V: fp.V}
	}
	return c, nil
}

// FromArg resolves a CLI -workload argument: a value naming a readable
// .json file (or any existing file) loads it; anything else must be a
// registered preset name. The error for an unknown name lists the
// presets, mirroring ParseProfile.
func FromArg(arg string) (Profile, error) {
	if strings.HasSuffix(arg, ".json") || fileExists(arg) {
		f, err := os.Open(arg)
		if err != nil {
			return Profile{}, fmt.Errorf("profile: %v", err)
		}
		defer f.Close()
		p, err := Load(f)
		if err != nil {
			return Profile{}, fmt.Errorf("%s: %v", arg, err)
		}
		return p, nil
	}
	preset, err := ParseProfile(arg)
	if err != nil {
		return Profile{}, err
	}
	return preset.Profile(), nil
}

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}
