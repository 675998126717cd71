package tcp

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"bufsim/internal/packet"
	"bufsim/internal/sim"
)

func TestParseVariant(t *testing.T) {
	cases := []struct {
		in   string
		want Variant
		ok   bool
	}{
		{"reno", Reno, true},
		{"Reno", Reno, true},
		{"", Reno, true},
		{"tahoe", Tahoe, true},
		{"newreno", NewReno, true},
		{"NewReno", NewReno, true},
		{"new-reno", NewReno, true},
		{"New_Reno", NewReno, true},
		{"sack", Sack, true},
		{"SACK", Sack, true},
		{"cubic", Cubic, true},
		{"CUBIC", Cubic, true},
		{"bbr", BBR, true},
		{"BBRv1", BBR, true},
		{"bbr1", BBR, true},
		{"vegas", Reno, false},
		{"reno ", Reno, false},
	}
	for _, c := range cases {
		got, err := ParseVariant(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseVariant(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseVariant(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseVariantErrorListsRegistry pins the contract that the
// "unknown variant" error is regenerated from the registry: every
// registered name must appear in it, so the message cannot drift as
// variants are added.
func TestParseVariantErrorListsRegistry(t *testing.T) {
	_, err := ParseVariant("nosuch")
	if err == nil {
		t.Fatal("ParseVariant(\"nosuch\") did not error")
	}
	for _, name := range VariantNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention registered variant %q", err, name)
		}
	}
}

func TestVariantStringRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("round trip %v -> %q -> %v, %v", v, v.String(), got, err)
		}
	}
}

// TestVariantRegistryExhaustive verifies every registry entry is fully
// populated and unambiguous. The registry array's length is pinned to
// numVariants at compile time, so this plus the round-trip test makes
// String, ParseVariant and the TextMarshaler pair exhaustive over all
// variants by construction.
func TestVariantRegistryExhaustive(t *testing.T) {
	seen := map[string]Variant{}
	for _, v := range Variants() {
		info := variantRegistry[v]
		if info.name == "" {
			t.Fatalf("variant %d has no registry name", int(v))
		}
		if info.newCC == nil {
			t.Fatalf("variant %v has no controller constructor", v)
		}
		if cc := info.newCC(nil); cc == nil {
			t.Fatalf("variant %v constructor returned nil", v)
		}
		for _, name := range append([]string{info.name}, info.aliases...) {
			if name != strings.ToLower(name) {
				t.Errorf("variant %v name %q is not lowercase", v, name)
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("name %q registered for both %v and %v", name, prev, v)
			}
			seen[name] = v
		}
		if _, err := v.MarshalText(); err != nil {
			t.Errorf("MarshalText(%v) errored: %v", v, err)
		}
	}
}

func TestVariantTextMarshalling(t *testing.T) {
	type wire struct {
		V Variant `json:"v"`
	}
	b, err := json.Marshal(wire{V: Sack})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"v":"sack"}` {
		t.Errorf("marshalled %s, want {\"v\":\"sack\"}", b)
	}
	b, err = json.Marshal(wire{V: BBR})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"v":"bbr"}` {
		t.Errorf("marshalled %s, want {\"v\":\"bbr\"}", b)
	}
	var back wire
	if err := json.Unmarshal([]byte(`{"v":"NewReno"}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.V != NewReno {
		t.Errorf("unmarshalled %v, want NewReno", back.V)
	}
	if err := json.Unmarshal([]byte(`{"v":"cubic"}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.V != Cubic {
		t.Errorf("unmarshalled %v, want Cubic", back.V)
	}
	if err := json.Unmarshal([]byte(`{"v":"vegas"}`), &back); err == nil {
		t.Error("unmarshalling an unknown variant did not error")
	}
	if _, err := Variant(99).MarshalText(); err == nil {
		t.Error("marshalling an unknown variant did not error")
	}
}

// TestUnregisteredVariantPanics: a sender for a variant outside the
// registry is a programmer error, reported with the value, never a
// silent Reno.
func TestUnregisteredVariantPanics(t *testing.T) {
	for _, v := range []Variant{Variant(numVariants), -1} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), fmt.Sprintf("variant %d", int(v))) {
					t.Errorf("NewSender with variant %d: recovered %v, want a panic naming it", int(v), p)
				}
			}()
			NewSender(Config{Flow: 1, Variant: v}, sim.NewScheduler(), packet.HandlerFunc(func(*packet.Packet) {}))
		}()
	}
}
