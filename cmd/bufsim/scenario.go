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
	if err != nil {
		return bufsim.Scenario{}, bufsim.LongLived{}, err
	}
	s, long, err := parseScenario(data)
	if err != nil {
		err = fmt.Errorf("%s: %v", path, err)
	}
	return s, long, err
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
	if err == nil { // a file describes long-lived flows
		err = bufsim.Check(s, long)
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
// bufferFactor x RTTxC/sqrt(flows), at least one packet. It checks what
// only the binary asks of them; what a run needs, bufsim.Check does
// before anything prints (preflight).
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
		{"flows", sf.Flows > 0, positive},
		{"warmup", s.Warmup > 0, positive},
		{"measure", s.Measure > 0, positive},
		{"bufferFactor", sf.BufferFactor > 0 && !math.IsInf(sf.BufferFactor, 1), errors.New("must be positive and finite")},
	} {
		if !f.ok {
			return fail(f.field, f.err)
		}
	}
	if s.Sender.Variant, err = bufsim.ParseVariant(sf.Variant); err != nil {
		return fail("variant", err)
	}
	s.Link.SegmentSize = bufsim.ByteSize(sf.Segment)
	s.Seed, s.RED, s.Sender.Paced, s.Sender.DelayedAck = sf.Seed, sf.RED, sf.Paced, sf.DelayedAck
	s.BufferPackets = sf.Buffer
	// A negative segment sizes no buffer; bufsim.Check rejects it.
	if s.BufferPackets == 0 && s.Link.SegmentSize >= 0 {
		b := sf.BufferFactor * float64(s.Link.SqrtRule(sf.Flows))
		if b >= math.MaxInt32 {
			return fail("bufferFactor", fmt.Errorf("gives a buffer of %.3g packets", b))
		}
		s.BufferPackets = max(1, int(b))
	}
	long.Flows = sf.Flows
	return s, long, nil
}
