package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"unicode"

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

// loadScenario reads a scenario file and lowers it (parseScenario).
func loadScenario(path string) (bufsim.Scenario, bufsim.LongLived, error) {
	data, err := os.ReadFile(path)
	var s bufsim.Scenario
	var long bufsim.LongLived
	if err == nil {
		s, long, err = parseScenario(data)
	}
	if err != nil {
		return bufsim.Scenario{}, bufsim.LongLived{}, fmt.Errorf("%s: %v", path, err)
	}
	return s, long, nil
}

// parseScenario decodes and lowers a scenario file's contents. A file
// must give "rate" and "flows"; a field left out or empty takes the
// flag's default, and a zero "bufferFactor" is 1.
func parseScenario(data []byte) (bufsim.Scenario, bufsim.LongLived, error) {
	var sf scenarioFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return bufsim.Scenario{}, bufsim.LongLived{}, err
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
	// A file describes long-lived flows, whose RTTs span rtt +- rttSpread/2.
	if err == nil && long.RTTSpread >= 2*s.Link.RTT {
		err = &fieldError{"rttSpread", fmt.Errorf("must be below 2 x rtt = %v", 2*s.Link.RTT)}
	}
	return s, long, err
}

// fieldError is a parameter scenario cannot lower. It names the file's
// field; the flag path names the flag instead (flagError).
type fieldError struct {
	field string
	err   error
}

func (e *fieldError) Error() string { return fmt.Sprintf("field %q: %v", e.field, e.err) }

// flagError renames a fieldError after the flag that set the field: the
// flags are the fields in kebab case (rttSpread is -rtt-spread).
func flagError(err error) error {
	var fe *fieldError
	if !errors.As(err, &fe) {
		return err
	}
	var flag strings.Builder
	for _, r := range fe.field {
		if unicode.IsUpper(r) {
			flag.WriteByte('-')
		}
		flag.WriteRune(unicode.ToLower(r))
	}
	return fmt.Errorf("-%s: %v", flag.String(), fe.err)
}

// scenario lowers the parameters onto the Scenario every run of the
// binary uses, long-lived, -workload or -adversary, and the long-lived
// traffic they describe. An explicit buffer wins; otherwise it is
// bufferFactor x RTTxC/sqrt(flows), at least one packet. Every check the
// sizing rules printed before a run depend on is made here, so bad input
// fails before anything prints.
func (sf scenarioFile) scenario() (bufsim.Scenario, bufsim.LongLived, error) {
	var s bufsim.Scenario
	var long bufsim.LongLived
	var err error
	fail := func(field string, err error) (bufsim.Scenario, bufsim.LongLived, error) {
		return bufsim.Scenario{}, bufsim.LongLived{}, &fieldError{field, err}
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
	// Zero is not "the default" here: a window printed as 0s must not
	// run for 40.
	positive := errors.New("must be positive")
	for _, f := range []struct {
		field string
		ok    bool
		err   error
	}{
		{"rate", s.Link.Rate > 0, positive},
		{"rtt", s.Link.RTT > 0, positive},
		{"flows", sf.Flows > 0, positive},
		{"warmup", s.Warmup > 0, positive},
		{"measure", s.Measure > 0, positive},
		{"rttSpread", long.RTTSpread >= 0, errors.New("must not be negative")},
		{"buffer", sf.Buffer >= 0, errors.New("must not be negative")},
		{"bufferFactor", sf.BufferFactor > 0 && !math.IsInf(sf.BufferFactor, 1), errors.New("must be positive and finite")},
		{"segment", sf.Segment >= 0, errors.New("must not be negative")},
	} {
		if !f.ok {
			return fail(f.field, f.err)
		}
	}
	if s.Sender.Variant, err = bufsim.ParseVariant(sf.Variant); err != nil {
		return fail("variant", err)
	}
	s.Link.SegmentSize = bufsim.ByteSize(sf.Segment)
	if s.Link.BDP() < 1 {
		return fail("rate", errors.New("must carry at least one segment per -rtt"))
	}
	s.Seed, s.RED, s.Sender.Paced, s.Sender.DelayedAck = sf.Seed, sf.RED, sf.Paced, sf.DelayedAck
	s.BufferPackets = sf.Buffer
	if s.BufferPackets == 0 {
		b := sf.BufferFactor * float64(s.Link.SqrtRule(sf.Flows))
		if b >= math.MaxInt32 {
			return fail("bufferFactor", fmt.Errorf("gives a buffer of %.3g packets", b))
		}
		s.BufferPackets = max(1, int(b))
	}
	long.Flows = sf.Flows
	return s, long, nil
}
