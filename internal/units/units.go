// Package units provides the physical quantities used throughout the
// simulator: simulated time, data sizes, and bit rates.
//
// Simulated time is kept as an integer number of nanoseconds so that event
// ordering is exact and runs are bit-for-bit reproducible. Bit rates are
// kept in bits per second. Helpers convert between the three (for example,
// the serialization delay of a packet on a link).
package units

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is an absolute simulated time in nanoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = math.MaxInt64

// Epoch is the simulation start instant. Converting a span into an
// absolute instant is written Epoch.Add(d) rather than Time(d): the
// former states the intent (a point d after the start), the latter
// launders a Duration into a Time and is rejected by the unitsafety
// analyzer.
const Epoch Time = 0

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds since the
// simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return Duration(t).String()
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Second == 0:
		return strconv.FormatInt(int64(d/Second), 10) + "s"
	case d >= Millisecond || d <= -Millisecond:
		return strconv.FormatFloat(d.Milliseconds(), 'g', -1, 64) + "ms"
	case d >= Microsecond || d <= -Microsecond:
		return strconv.FormatFloat(float64(d)/float64(Microsecond), 'g', -1, 64) + "us"
	default:
		return strconv.FormatInt(int64(d), 10) + "ns"
	}
}

// DurationFromSeconds converts a floating-point number of seconds to a
// Duration, rounding to the nearest nanosecond.
func DurationFromSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// ParseDuration parses strings like "250ms", "80us", "2.5s" or "10ns". A
// value that is not finite or does not fit a Duration is an error naming
// the input.
func ParseDuration(s string) (Duration, error) {
	orig := s
	var unit Duration
	switch {
	case strings.HasSuffix(s, "ms"):
		unit, s = Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "us"):
		unit, s = Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ns"):
		unit, s = Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "s"):
		unit, s = Second, strings.TrimSuffix(s, "s")
	default:
		return 0, fmt.Errorf("units: duration %q has no unit suffix", orig)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad duration %q: %v", orig, err)
	}
	return durationOf(orig, v, unit)
}

// ParseDurationOrSeconds parses the JSON value raw of the field named
// field: a duration string ("30s", "1500ms") or a bare number of seconds,
// the two ways trace and profile files write a time. Like ParseDuration
// it rejects a time that is not finite or does not fit a Duration.
func ParseDurationOrSeconds(field string, raw []byte) (Duration, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return 0, fmt.Errorf("missing %q", field)
	}
	var s string
	if json.Unmarshal(raw, &s) == nil {
		return ParseDuration(s)
	}
	secs, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return 0, fmt.Errorf("%q must be a duration string or a number of seconds, got %s", field, raw)
	}
	return durationOf(string(raw), secs, Second)
}

// durationOf is v units as a Duration, rounded to the nanosecond, or an
// error naming in when that is not finite or overflows int64.
func durationOf(in string, v float64, unit Duration) (Duration, error) {
	ns := math.Round(v * float64(unit))
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) { // also NaN
		return 0, fmt.Errorf("units: duration %q out of range (not finite, or beyond ±292 years)", in)
	}
	return Duration(ns), nil
}

// ByteSize is a quantity of data in bytes.
type ByteSize int64

// Common data sizes.
const (
	Byte     ByteSize = 1
	Kilobyte          = 1000 * Byte
	Megabyte          = 1000 * Kilobyte
	Gigabyte          = 1000 * Megabyte
)

// DefaultSegment is the segment (packet) size every simulation and sizing
// rule assumes when none is given: the paper's approximation of an
// Internet MTU-sized packet, and the unit buffers are counted in.
const DefaultSegment = 1000 * Byte

// Bits returns the size in bits.
func (b ByteSize) Bits() int64 { return int64(b) * 8 }

func (b ByteSize) String() string {
	switch {
	case b >= Gigabyte:
		return strconv.FormatFloat(float64(b)/float64(Gigabyte), 'g', 4, 64) + "GB"
	case b >= Megabyte:
		return strconv.FormatFloat(float64(b)/float64(Megabyte), 'g', 4, 64) + "MB"
	case b >= Kilobyte:
		return strconv.FormatFloat(float64(b)/float64(Kilobyte), 'g', 4, 64) + "KB"
	default:
		return strconv.FormatInt(int64(b), 10) + "B"
	}
}

// BitRate is a data rate in bits per second.
type BitRate int64

// Common rates, including the SONET line rates the paper evaluates.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps

	OC3  = 155 * Mbps // the paper's lab and ns-2 line rate (155.52 rounded as in the paper)
	OC12 = 622 * Mbps
	OC48 = 2488 * Mbps // "2.5Gb/s"
)

func (r BitRate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return strconv.FormatInt(int64(r/Gbps), 10) + "Gbps"
	case r >= Mbps && r%Mbps == 0:
		return strconv.FormatInt(int64(r/Mbps), 10) + "Mbps"
	case r >= Kbps && r%Kbps == 0:
		return strconv.FormatInt(int64(r/Kbps), 10) + "Kbps"
	default:
		return strconv.FormatInt(int64(r), 10) + "bps"
	}
}

// ParseBitRate parses strings like "155Mbps", "2.5Gbps" or "56Kbps".
func ParseBitRate(s string) (BitRate, error) {
	orig := s
	var unit BitRate
	switch {
	case strings.HasSuffix(s, "Gbps"):
		unit, s = Gbps, strings.TrimSuffix(s, "Gbps")
	case strings.HasSuffix(s, "Mbps"):
		unit, s = Mbps, strings.TrimSuffix(s, "Mbps")
	case strings.HasSuffix(s, "Kbps"):
		unit, s = Kbps, strings.TrimSuffix(s, "Kbps")
	case strings.HasSuffix(s, "bps"):
		unit, s = BitPerSecond, strings.TrimSuffix(s, "bps")
	default:
		return 0, fmt.Errorf("units: bit rate %q has no unit suffix", orig)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad bit rate %q: %v", orig, err)
	}
	return BitRate(math.Round(v * float64(unit))), nil
}

// TransmissionTime returns how long it takes to serialize size bytes onto a
// link of rate r. It panics if r is not positive.
func TransmissionTime(size ByteSize, r BitRate) Duration {
	if r <= 0 {
		panic("units: non-positive bit rate")
	}
	bits := size.Bits()
	// bits * 1e9 / rate, using integer math with care for overflow:
	// bits fits comfortably (packet sizes), so bits*Second is fine for
	// sizes under ~9.2 GB.
	return Duration(bits * int64(Second) / int64(r))
}

// BytesInFlight returns how many bytes a rate sustains over a duration
// (the bandwidth-delay product when d is the round-trip time).
func BytesInFlight(r BitRate, d Duration) ByteSize {
	bits := float64(r) * d.Seconds()
	return ByteSize(math.Round(bits / 8))
}

// PacketsInFlight returns the bandwidth-delay product expressed in packets
// of the given size, rounding to the nearest whole packet.
func PacketsInFlight(r BitRate, d Duration, packetSize ByteSize) int {
	if packetSize <= 0 {
		panic("units: non-positive packet size")
	}
	return int(math.Round(float64(BytesInFlight(r, d)) / float64(packetSize)))
}
