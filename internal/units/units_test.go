package units

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(250 * Millisecond)
	if got := t1.Sub(t0); got != 250*Millisecond {
		t.Errorf("Sub = %v, want 250ms", got)
	}
	if got := t1.Seconds(); got != 0.25 {
		t.Errorf("Seconds = %v, want 0.25", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{250 * Millisecond, "250ms"},
		{80 * Microsecond, "80us"},
		{5 * Nanosecond, "5ns"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"250ms", 250 * Millisecond},
		{"2.5s", 2500 * Millisecond},
		{"80us", 80 * Microsecond},
		{"10ns", 10 * Nanosecond},
		{"0.08s", 80 * Millisecond},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "10", "fast", "10sec", "1e400s"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q): want error", bad)
		}
	}
	// Values that parse as floats but are no Duration: not finite, or
	// past ±2^63 ns. They used to come back as -9.2e12 ms.
	for _, bad := range []string{"NaNs", "Infs", "-Infms", "1e12s", "-1e12s", "9223372036854775808ns"} {
		if d, err := ParseDuration(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseDuration(%q) = %v, %v; want an error naming the input", bad, d, err)
		}
	}
	if d, err := ParseDuration("-9223372036854775808ns"); err != nil || d != math.MinInt64 {
		t.Errorf("ParseDuration of the most negative Duration = %v, %v", d, err)
	}
}

func TestParseDurationOrSeconds(t *testing.T) {
	for in, want := range map[string]Duration{
		`"250ms"`: 250 * Millisecond,
		`1.5`:     1500 * Millisecond,
		` 0 `:     0,
		`"2s"`:    2 * Second,
		`-3`:      -3 * Second,
	} {
		if got, err := ParseDurationOrSeconds("t", []byte(in)); err != nil || got != want {
			t.Errorf("ParseDurationOrSeconds(%s) = %v, %v; want %v", in, got, err, want)
		}
	}
	for in, wantErr := range map[string]string{
		``:        `missing "t"`,
		`true`:    `"t" must be a duration string or a number of seconds, got true`,
		`"fasts"`: `bad duration "fasts"`,
		`1e300`:   `duration "1e300" out of range`,
		`-1e10`:   `duration "-1e10" out of range`,
		`"NaNs"`:  `duration "NaNs" out of range`,
		`"1e12s"`: `duration "1e12s" out of range`,
		`1e400`:   `"t" must be a duration string or a number of seconds`,
	} {
		if _, err := ParseDurationOrSeconds("t", []byte(in)); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("ParseDurationOrSeconds(%s) error = %v, want %q", in, err, wantErr)
		}
	}
}

func TestParseBitRate(t *testing.T) {
	cases := []struct {
		in   string
		want BitRate
	}{
		{"155Mbps", OC3},
		{"2.5Gbps", 2500 * Mbps},
		{"56Kbps", 56 * Kbps},
		{"1000bps", 1000},
	}
	for _, c := range cases {
		got, err := ParseBitRate(c.in)
		if err != nil {
			t.Errorf("ParseBitRate(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBitRate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseBitRate("10"); err == nil {
		t.Error("ParseBitRate(10): want error")
	}
}

func TestTransmissionTime(t *testing.T) {
	// A 1000-byte packet on a 10 Mb/s link takes 800 us.
	if got := TransmissionTime(1000, 10*Mbps); got != 800*Microsecond {
		t.Errorf("TransmissionTime = %v, want 800us", got)
	}
	// A 40-byte packet at 40 Gb/s takes 8 ns (the paper's §1.3 example).
	if got := TransmissionTime(40, 40*Gbps); got != 8*Nanosecond {
		t.Errorf("TransmissionTime = %v, want 8ns", got)
	}
}

func TestBandwidthDelayProduct(t *testing.T) {
	// The paper's headline example: 250 ms x 10 Gb/s = 2.5 Gbit = 312.5 MB.
	got := BytesInFlight(10*Gbps, 250*Millisecond)
	if got != 312500000 {
		t.Errorf("BytesInFlight = %d, want 312500000", got)
	}
	// OC3 with 100 ms RTT and 1000-byte packets: about 1937 packets,
	// close to the paper's 1291 value for their RTT/packet-size choice.
	pkts := PacketsInFlight(OC3, 100*Millisecond, 1500)
	if pkts != 1292 {
		t.Errorf("PacketsInFlight = %d, want 1292", pkts)
	}
}

func TestTransmissionTimeProperty(t *testing.T) {
	// Transmission time is monotone in size and antitone in rate.
	f := func(size uint16, rate uint32) bool {
		s := ByteSize(size%9000 + 40)
		r := BitRate(rate%1000+1) * Mbps
		t1 := TransmissionTime(s, r)
		t2 := TransmissionTime(s+100, r)
		t3 := TransmissionTime(s, r+Mbps)
		return t2 >= t1 && t3 <= t1 && t1 > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationFromSeconds(t *testing.T) {
	if got := DurationFromSeconds(0.25); got != 250*Millisecond {
		t.Errorf("DurationFromSeconds(0.25) = %v", got)
	}
	if got := DurationFromSeconds(1e-9); got != Nanosecond {
		t.Errorf("DurationFromSeconds(1e-9) = %v", got)
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		b    ByteSize
		want string
	}{
		{500, "500B"},
		{2 * Kilobyte, "2KB"},
		{3 * Megabyte, "3MB"},
		{Gigabyte, "1GB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		r    BitRate
		want string
	}{
		{OC3, "155Mbps"},
		{10 * Gbps, "10Gbps"},
		{56 * Kbps, "56Kbps"},
		{999, "999bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.r), got, c.want)
		}
	}
}

func TestRoundTripParseFormat(t *testing.T) {
	f := func(ms uint16) bool {
		d := Duration(ms) * Millisecond
		parsed, err := ParseDuration(d.String())
		return err == nil && parsed == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransmissionTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TransmissionTime(_, 0) did not panic")
		}
	}()
	TransmissionTime(1000, 0)
}

func TestNever(t *testing.T) {
	if Never.String() != "never" {
		t.Errorf("Never.String() = %q", Never.String())
	}
	if Never <= Time(math.MaxInt64-1) {
		t.Error("Never should be the maximum Time")
	}
}
