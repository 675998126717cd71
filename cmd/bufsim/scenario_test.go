package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufsim"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadScenario(t *testing.T) {
	path := writeConfig(t, `{
		"rate": "155Mbps", "rtt": "100ms", "rttSpread": "40ms",
		"flows": 300, "bufferFactor": 2.0,
		"variant": "sack", "paced": true, "delayedAck": true,
		"seed": 9, "warmup": "5s", "measure": "10s"
	}`)
	sim, long, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Link.Rate != bufsim.OC3 || sim.Link.RTT != 100*bufsim.Millisecond {
		t.Errorf("link = %+v", sim.Link)
	}
	if long.Flows != 300 || long.RTTSpread != 40*bufsim.Millisecond || sim.Seed != 9 || !sim.Sender.Paced || !sim.Sender.DelayedAck {
		t.Errorf("scenario = %+v, traffic = %+v", sim, long)
	}
	if sim.Sender.Variant != bufsim.Sack {
		t.Errorf("variant = %v", sim.Sender.Variant)
	}
	// bufferFactor 2 x sqrt rule (1938/sqrt(300) ~ 112) ~ 224.
	if sim.BufferPackets < 220 || sim.BufferPackets > 228 {
		t.Errorf("BufferPackets = %d, want ~224", sim.BufferPackets)
	}
	if sim.Warmup != 5*bufsim.Second || sim.Measure != 10*bufsim.Second {
		t.Errorf("windows = %v/%v", sim.Warmup, sim.Measure)
	}
}

func TestLoadScenarioExplicitBufferWins(t *testing.T) {
	path := writeConfig(t, `{"rate": "10Mbps", "flows": 10, "buffer": 77, "bufferFactor": 3}`)
	sim, _, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sim.BufferPackets != 77 {
		t.Errorf("BufferPackets = %d, want 77", sim.BufferPackets)
	}
	// Defaults fill in.
	if sim.Sender.Variant != bufsim.Reno || sim.Warmup != 20*bufsim.Second {
		t.Errorf("defaults not applied: %+v", sim)
	}

	// A zero factor is 1 and an empty duration is its default, as if the
	// field were left out.
	path = writeConfig(t, `{"rate": "10Mbps", "flows": 10, "bufferFactor": 0,
		"rtt": "", "rttSpread": "", "warmup": "", "measure": ""}`)
	sim, long, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Link.SqrtRule(10); sim.BufferPackets != want {
		t.Errorf("BufferPackets = %d, want the sqrt rule's %d", sim.BufferPackets, want)
	}
	if sim.Link.RTT != 100*bufsim.Millisecond || long.RTTSpread != 80*bufsim.Millisecond ||
		sim.Warmup != 20*bufsim.Second || sim.Measure != 40*bufsim.Second {
		t.Errorf("empty fields not defaulted: %+v, %+v", sim, long)
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"missing rate":    `{"flows": 10}`,
		"bad rate":        `{"rate": "fast", "flows": 10}`,
		"bad rtt":         `{"rate": "10Mbps", "rtt": "late", "flows": 10}`,
		"zero flows":      `{"rate": "10Mbps"}`,
		"unknown field":   `{"rate": "10Mbps", "flows": 10, "bandwidth": 5}`,
		"bad variant":     `{"rate": "10Mbps", "flows": 10, "variant": "vegas"}`,
		"malformed json":  `{"rate": `,
		"zero measure":    `{"rate": "10Mbps", "flows": 10, "measure": "0s"}`,
		"zero warmup":     `{"rate": "10Mbps", "flows": 10, "warmup": "0s"}`,
		"negative factor": `{"rate": "10Mbps", "flows": 10, "bufferFactor": -1}`,
		"huge factor":     `{"rate": "10Mbps", "flows": 10, "bufferFactor": 1e300}`,
		"negative buffer": `{"rate": "10Mbps", "flows": 10, "buffer": -5}`,
		"negative spread": `{"rate": "10Mbps", "flows": 10, "rttSpread": "-1ms"}`,
		"wide spread":     `{"rate": "10Mbps", "flows": 10, "rtt": "50ms", "rttSpread": "100ms"}`,
		"under a segment": `{"rate": "100Kbps", "flows": 2, "rtt": "20ms", "rttSpread": "0s"}`,
	}
	for name, body := range cases {
		if _, _, err := loadScenario(writeConfig(t, body)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// A zero window is refused by name, not run for the default.
	_, _, err := loadScenario(writeConfig(t, `{"rate": "10Mbps", "flows": 10, "measure": "0s"}`))
	if err == nil || !strings.Contains(err.Error(), `field "measure": must be positive`) {
		t.Errorf("zero measure: err = %v", err)
	}
	// So is a link that carries less than a segment per RTT.
	_, _, err = loadScenario(writeConfig(t, cases["under a segment"]))
	if err == nil || !strings.Contains(err.Error(), "Scenario.Link.Rate") {
		t.Errorf("under a segment: err = %v", err)
	}
	if _, _, err := loadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file: no error")
	}
}

func TestRepoExampleConfigLoads(t *testing.T) {
	// The checked-in example must stay valid.
	sim, long, err := loadScenario("../../configs/oc3-sack.json")
	if err != nil {
		t.Fatal(err)
	}
	if long.Flows != 200 || sim.Sender.Variant != bufsim.Sack {
		t.Errorf("example config parsed oddly: %+v, %+v", sim, long)
	}
}

// FuzzLoadScenario feeds the -config parser arbitrary bytes: it must
// never panic, whatever it accepts bufsim.Check accepts, and its windows
// are the ones it prints, not a zero the run would read as its default.
func FuzzLoadScenario(f *testing.F) {
	example, err := os.ReadFile("../../configs/oc3-sack.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, seed := range []string{
		`{"rate": "155Mbps", "rtt": "100ms", "rttSpread": "40ms", "flows": 300, "bufferFactor": 2.0,
			"variant": "sack", "paced": true, "delayedAck": true, "seed": 9, "warmup": "5s", "measure": "10s"}`,
		`{"rate": "10Mbps", "flows": 10, "buffer": 77, "bufferFactor": 3}`,
		`{"rate": "10Mbps", "flows": 10, "bufferFactor": 0, "rtt": "", "rttSpread": "", "warmup": "", "measure": ""}`,
		`{"rate": "10Mbps", "flows": 10, "measure": "0s"}`,
		`{"rate": "10Mbps", "flows": 10, "bufferFactor": 1e300}`,
		`{"rate": "10Mbps", "flows": 10, "rtt": "50ms", "rttSpread": "100ms"}`,
		`{"rate": "1e30Gbps", "rtt": "1e9s", "flows": 1}`,
		`{"rate": "fast", "flows": 10}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, long, err := parseScenario(data)
		if err != nil {
			return
		}
		if err := bufsim.Check(s, long); err != nil {
			t.Fatalf("accepted a scenario the run rejects: %v", err)
		}
		if s.Warmup <= 0 || s.Measure <= 0 {
			t.Fatalf("accepted windows %v and %v", s.Warmup, s.Measure)
		}
	})
}
