package profile

import (
	"math"
	"strings"
	"testing"

	"bufsim/internal/units"
)

func TestCurveAt(t *testing.T) {
	c := Curve{
		{T: 10 * units.Second, V: 2},
		{T: 20 * units.Second, V: 4},
		{T: 30 * units.Second, V: 1},
	}
	cases := []struct {
		at   units.Duration
		want float64
	}{
		{0, 2},                   // clamp before first point
		{10 * units.Second, 2},   // exactly on a point
		{15 * units.Second, 3},   // interpolate up
		{20 * units.Second, 4},   // peak
		{25 * units.Second, 2.5}, // interpolate down
		{30 * units.Second, 1},
		{99 * units.Second, 1}, // clamp after last point
	}
	for _, cse := range cases {
		if got := c.At(cse.at); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.at, got, cse.want)
		}
	}
	if got := Curve(nil).At(5 * units.Second); got != 0 {
		t.Errorf("empty curve At = %v, want 0", got)
	}
	if got := c.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := c.End(); got != 30*units.Second {
		t.Errorf("End = %v, want 30s", got)
	}
}

// TestValidateErrors is the satellite bugfix's regression net: every
// malformed input that previously had no guard (the package is new, but
// these same shapes fed raw into a thinning loop would NaN the
// inter-arrival mean or hang the population compiler) must now produce
// a clear error naming the defect.
func TestValidateErrors(t *testing.T) {
	valid := Curve{{T: 0, V: 1}, {T: 10 * units.Second, V: 2}}
	cases := []struct {
		name    string
		p       Profile
		wantErr string // substring; "" means valid
	}{
		{"valid", Profile{Name: "ok", Arrival: valid}, ""},
		{"valid population only", Profile{Name: "ok", Population: valid}, ""},
		{"negative rate", Profile{Arrival: Curve{{T: 0, V: -1}}}, "negative value"},
		{"negative population", Profile{Population: Curve{{T: 0, V: -0.5}}}, "negative value"},
		{"NaN rate", Profile{Arrival: Curve{{T: 0, V: math.NaN()}}}, "must be finite"},
		{"infinite rate", Profile{Arrival: Curve{{T: 0, V: math.Inf(1)}}}, "must be finite"},
		{"negative time", Profile{Arrival: Curve{{T: -units.Second, V: 1}}}, "negative time offset"},
		{"zero-duration segment", Profile{Arrival: Curve{
			{T: 5 * units.Second, V: 1}, {T: 5 * units.Second, V: 9},
		}}, "zero-duration segment"},
		{"non-monotone times", Profile{Arrival: Curve{
			{T: 5 * units.Second, V: 1}, {T: 2 * units.Second, V: 1},
		}}, "increasing time order"},
		{"no traffic", Profile{Name: "empty"}, "describes no traffic"},
		{"all-zero curves", Profile{
			Arrival:    Curve{{T: 0, V: 0}, {T: units.Second, V: 0}},
			Population: Curve{{T: 0, V: 0}},
		}, "describes no traffic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Validate() = %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestCompress(t *testing.T) {
	p := Profile{
		Name:       "x",
		Arrival:    Curve{{T: 0, V: 1}, {T: 60 * units.Second, V: 2}},
		Population: Curve{{T: 0, V: 3}, {T: 30 * units.Second, V: 4}},
	}
	got, err := p.Compress(2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arrival[1].T != 30*units.Second {
		t.Errorf("compressed arrival end = %v, want 30s", got.Arrival[1].T)
	}
	if got.Population[1].T != 15*units.Second {
		t.Errorf("compressed population end = %v, want 15s", got.Population[1].T)
	}
	if got.Arrival[1].V != 2 || got.Population[1].V != 4 {
		t.Error("compression changed curve values")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-300} {
		if _, err := p.Compress(bad); err == nil {
			t.Errorf("Compress(%v) did not error", bad)
		}
	}
}

func TestScaleTo(t *testing.T) {
	p := Profile{
		Arrival:    Curve{{T: 0, V: 0.1}, {T: 10 * units.Second, V: 1}},
		Population: Curve{{T: 0, V: 0.5}, {T: 10 * units.Second, V: 1}},
	}
	got := p.ScaleTo(40, 20)
	if m := got.Arrival.Max(); math.Abs(m-40) > 1e-9 {
		t.Errorf("arrival peak = %v, want 40", m)
	}
	if v := got.Arrival.At(0); math.Abs(v-4) > 1e-9 {
		t.Errorf("arrival baseline = %v, want 4", v)
	}
	if m := got.Population.Max(); math.Abs(m-20) > 1e-9 {
		t.Errorf("population peak = %v, want 20", m)
	}
	// A zero target removes the curve entirely.
	if got := p.ScaleTo(40, 0); got.Population != nil {
		t.Error("ScaleTo(.., 0) kept the population curve")
	}
	if got := p.ScaleTo(0, 20); got.Arrival != nil {
		t.Error("ScaleTo(0, ..) kept the arrival curve")
	}
}

func TestSum(t *testing.T) {
	a := Profile{
		Name:    "base",
		Arrival: Curve{{T: 0, V: 1}, {T: 10 * units.Second, V: 1}},
	}
	b := Profile{
		Name:    "spike",
		Arrival: Curve{{T: 0, V: 0}, {T: 5 * units.Second, V: 2}, {T: 10 * units.Second, V: 0}},
	}
	got := Sum(a, b)
	if got.Name != "base+spike" {
		t.Errorf("Name = %q", got.Name)
	}
	cases := []struct {
		at   units.Duration
		want float64
	}{
		{0, 1},
		{5 * units.Second, 3},
		{7500 * units.Millisecond, 2},
		{10 * units.Second, 1},
	}
	for _, c := range cases {
		if v := got.Arrival.At(c.at); math.Abs(v-c.want) > 1e-12 {
			t.Errorf("sum At(%v) = %v, want %v", c.at, v, c.want)
		}
	}
	// The union of control points keeps the sum exactly piecewise
	// linear: every input control time must appear.
	if len(got.Arrival) != 3 {
		t.Errorf("sum has %d control points, want 3 (union)", len(got.Arrival))
	}
	if err := got.Validate(); err != nil {
		t.Errorf("sum does not validate: %v", err)
	}
}
