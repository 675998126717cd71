package tcp

import (
	"fmt"
	"strings"
)

// Variant selects the congestion-control flavour. Each variant is an
// index into the package's variant registry, which supplies its name,
// parse aliases and CongestionControl constructor; adding a variant
// means adding one registry entry (see cc.go for the controller
// contract) — String, ParseVariant, the TextMarshaler pair and the
// "unknown variant" error message all derive from the registry and
// cannot drift.
type Variant int

// Supported congestion-control variants.
const (
	// Reno: fast retransmit + fast recovery, exit recovery on the first
	// new ACK. The paper's ns-2 experiments use Reno.
	Reno Variant = iota
	// Tahoe: fast retransmit but no fast recovery (window to 1).
	Tahoe
	// NewReno: Reno with partial-ACK retransmission during recovery.
	NewReno
	// Sack: selective acknowledgements with RFC 6675-style pipe-driven
	// recovery — multiple holes repaired per round trip.
	Sack
	// Cubic: RFC 8312-style cubic window growth (beta 0.7, C 0.4) with a
	// TCP-friendly region, on NewReno recovery mechanics. The dominant
	// loss-based variant the 2004 rule was never derived for.
	Cubic
	// BBR: a BBRv1-style model-based controller — windowed max-filtered
	// delivery rate and min-filtered RTT drive the pacing rate and an
	// inflight cap; loss does not shrink the window. Rate-driven, the
	// regime where Spang et al. show B = RTT·C/sqrt(n) stops applying.
	BBR

	numVariants = int(BBR) + 1
)

// variantInfo is one registry entry.
type variantInfo struct {
	name    string
	aliases []string
	// newCC builds the variant's controller, zeroing old in place instead
	// when it already is one (see renew).
	newCC func(old CongestionControl) CongestionControl
	// sack marks variants whose receivers generate SACK blocks.
	sack bool
}

// variantRegistry is indexed by Variant. The array length is pinned to
// numVariants, so adding a constant above without a registry entry (or
// vice versa) fails to compile; TestVariantRegistryExhaustive checks the
// entries themselves are populated.
var variantRegistry = [numVariants]variantInfo{
	Reno:    {name: "reno", newCC: renew[renoCC]},
	Tahoe:   {name: "tahoe", newCC: renew[tahoeCC]},
	NewReno: {name: "newreno", aliases: []string{"new-reno", "new_reno"}, newCC: renew[newRenoCC]},
	Sack:    {name: "sack", newCC: renewSack, sack: true},
	Cubic:   {name: "cubic", newCC: renew[cubicCC]},
	BBR:     {name: "bbr", aliases: []string{"bbrv1", "bbr1"}, newCC: renew[bbrCC]},
}

// renew returns old zeroed in place when it is a *T, else a new zero T:
// a renewed sender (Sender.Renew) keeps its controller's memory while its
// variant stays the same.
func renew[T any, P interface {
	*T
	CongestionControl
}](old CongestionControl) CongestionControl {
	if c, ok := old.(P); ok {
		*c = *new(T)
		return c
	}
	return P(new(T))
}

// renewSack is renew for SACK, whose zeroed controller keeps its
// scoreboard's slices, emptied.
func renewSack(old CongestionControl) CongestionControl {
	c, ok := old.(*sackCC)
	if !ok {
		return new(sackCC)
	}
	sb := c.sb
	sb.reset()
	*c = sackCC{sb: sb}
	return c
}

// valid reports whether v indexes a registered variant.
func (v Variant) valid() bool { return v >= 0 && int(v) < numVariants }

func (v Variant) String() string {
	if !v.valid() {
		return fmt.Sprintf("variant(%d)", int(v))
	}
	return variantRegistry[v].name
}

// generatesSack reports whether receivers for this variant attach SACK
// blocks to their acknowledgements.
func (v Variant) generatesSack() bool { return v.valid() && variantRegistry[v].sack }

// newCongestionControl builds the variant's controller, reusing old
// (nil for none) when it has the same type. An unregistered variant
// panics: the public entry points reject one, so it is a programmer error.
func (v Variant) newCongestionControl(old CongestionControl) CongestionControl {
	if !v.valid() {
		panic(fmt.Sprintf("tcp: unregistered variant %d", int(v)))
	}
	return variantRegistry[v].newCC(old)
}

// VariantNames returns the canonical variant names in registry order
// (for CLI help text and error messages).
func VariantNames() []string {
	names := make([]string, numVariants)
	for i, info := range variantRegistry {
		names[i] = info.name
	}
	return names
}

// Variants returns all registered variants in registry order.
func Variants() []Variant {
	vs := make([]Variant, numVariants)
	for i := range vs {
		vs[i] = Variant(i)
	}
	return vs
}

// variantNameList renders "reno, tahoe, ... or bbr" for the parse error,
// regenerated from the registry so it cannot drift as variants are added.
func variantNameList() string {
	names := VariantNames()
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// ParseVariant parses a congestion-control name, case-insensitively,
// accepting each variant's canonical name or registered aliases (e.g.
// "new-reno" for newreno, "bbrv1" for bbr). The empty string parses as
// Reno, the zero value, so optional config fields round-trip.
func ParseVariant(s string) (Variant, error) {
	lower := strings.ToLower(s)
	if lower == "" {
		return Reno, nil
	}
	for i, info := range variantRegistry {
		if lower == info.name {
			return Variant(i), nil
		}
		for _, a := range info.aliases {
			if lower == a {
				return Variant(i), nil
			}
		}
	}
	return Reno, fmt.Errorf("tcp: unknown variant %q (want %s)", s, variantNameList())
}

// MarshalText implements encoding.TextMarshaler, so a Variant renders as
// its name in JSON scenario files rather than a bare integer.
func (v Variant) MarshalText() ([]byte, error) {
	if !v.valid() {
		return nil, fmt.Errorf("tcp: cannot marshal unknown variant %d", int(v))
	}
	return []byte(v.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseVariant.
func (v *Variant) UnmarshalText(text []byte) error {
	parsed, err := ParseVariant(string(text))
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}
