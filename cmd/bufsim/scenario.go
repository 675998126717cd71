package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"bufsim"
)

// scenarioFile is the JSON schema for -config: the flag set, as a file.
// Durations and rates are strings in the package's notation ("100ms",
// "155Mbps") so configs read like the paper. The flags fill the same
// struct, so flags and files reach the run through one lowering
// (scenario).
//
//	{
//	  "rate": "155Mbps", "rtt": "100ms", "rttSpread": "80ms",
//	  "flows": 400, "bufferFactor": 1.0,
//	  "variant": "sack", "paced": false, "delayedAck": false,
//	  "seed": 1, "warmup": "20s", "measure": "40s"
//	}
//
// "variant" takes any registered congestion-control name — reno, tahoe,
// newreno, sack, cubic, bbr (see bufsim.VariantNames) — or an alias
// like "new-reno" or "bbrv1".
type scenarioFile struct {
	Rate         string  `json:"rate"`
	RTT          string  `json:"rtt"`
	RTTSpread    string  `json:"rttSpread"`
	Flows        int     `json:"flows"`
	BufferFactor float64 `json:"bufferFactor"`
	Buffer       int     `json:"buffer"`
	Segment      int     `json:"segment"`
	Variant      string  `json:"variant"`
	Paced        bool    `json:"paced"`
	DelayedAck   bool    `json:"delayedAck"`
	RED          bool    `json:"red"`
	Seed         int64   `json:"seed"`
	Warmup       string  `json:"warmup"`
	Measure      string  `json:"measure"`
}

// loadScenario reads a scenario file and lowers it. A file must give
// "rate" and "flows"; a field left out, empty or zero takes the flag's
// default, and a zero "bufferFactor" is 1.
func loadScenario(path string) (bufsim.Scenario, bufsim.LongLived, error) {
	var sf scenarioFile
	data, err := os.ReadFile(path)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = dec.Decode(&sf)
	}
	if err != nil {
		return bufsim.Scenario{}, bufsim.LongLived{}, fmt.Errorf("%s: %v", path, err)
	}
	orDefault := func(field *string, dflt string) {
		if *field == "" {
			*field = dflt
		}
	}
	orDefault(&sf.RTT, "100ms")
	orDefault(&sf.RTTSpread, "80ms")
	orDefault(&sf.Warmup, "20s")
	orDefault(&sf.Measure, "40s")
	if sf.BufferFactor == 0 {
		sf.BufferFactor = 1
	}
	s, long, err := sf.scenario()
	if err != nil {
		return bufsim.Scenario{}, bufsim.LongLived{}, fmt.Errorf("%s: %v", path, err)
	}
	return s, long, nil
}

// scenario lowers the parameters onto the Scenario every run of the
// binary uses, long-lived, -workload or -adversary, and the long-lived
// traffic they describe. An explicit buffer wins; otherwise it is
// bufferFactor x RTTxC/sqrt(flows), at least one packet.
func (sf scenarioFile) scenario() (bufsim.Scenario, bufsim.LongLived, error) {
	var s bufsim.Scenario
	var long bufsim.LongLived
	var err error
	fail := func(field string, err error) (bufsim.Scenario, bufsim.LongLived, error) {
		return bufsim.Scenario{}, bufsim.LongLived{}, fmt.Errorf("field %q: %v", field, err)
	}
	if s.Link.Rate, err = bufsim.ParseBitRate(sf.Rate); err != nil {
		return fail("rate", err)
	}
	for _, d := range []struct {
		field, in string
		out       *bufsim.Duration
	}{
		{"rtt", sf.RTT, &s.Link.RTT},
		{"rttSpread", sf.RTTSpread, &long.RTTSpread},
		{"warmup", sf.Warmup, &s.Warmup},
		{"measure", sf.Measure, &s.Measure},
	} {
		if *d.out, err = bufsim.ParseDuration(d.in); err != nil {
			return fail(d.field, err)
		}
	}
	// The sizing rules printed before any run need these three.
	for _, f := range []struct {
		field    string
		positive bool
	}{{"rate", s.Link.Rate > 0}, {"rtt", s.Link.RTT > 0}, {"flows", sf.Flows > 0}} {
		if !f.positive {
			return fail(f.field, errors.New("must be positive"))
		}
	}
	if s.Sender.Variant, err = bufsim.ParseVariant(sf.Variant); err != nil {
		return fail("variant", err)
	}
	s.Link.SegmentSize = bufsim.ByteSize(sf.Segment)
	s.Seed, s.RED, s.Sender.Paced, s.Sender.DelayedAck = sf.Seed, sf.RED, sf.Paced, sf.DelayedAck
	s.BufferPackets = sf.Buffer
	if s.BufferPackets == 0 {
		s.BufferPackets = max(1, int(sf.BufferFactor*float64(s.Link.SqrtRule(sf.Flows))))
	}
	long.Flows = sf.Flows
	return s, long, nil
}
