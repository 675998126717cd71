package bufsim_test

import (
	"strings"
	"testing"

	"bufsim"
)

// TestSimulateAdversary drives the facade for every pattern: the pulse
// train must defeat even a full-BDP buffer, the AIMD cohort must read
// synchronized, and the parking lot must report a loaded chain.
func TestSimulateAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (scaled) adversarial scenarios")
	}
	link := bufsim.Link{Rate: 20 * bufsim.Mbps, RTT: 80 * bufsim.Millisecond}
	s := bufsim.Scenario{
		Seed: 7, Link: link, BufferPackets: link.BDP(),
		Warmup: 2 * bufsim.Second, Measure: 4 * bufsim.Second,
	}
	run := func(s bufsim.Scenario, p bufsim.AdversaryPattern, opts ...bufsim.Option) bufsim.AdversaryResult {
		t.Helper()
		res, err := bufsim.Run(s, bufsim.Adversary{Pattern: p, Flows: 8}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	aud := bufsim.NewAuditor()
	res := run(s, bufsim.AdversaryPulse, bufsim.WithAudit(aud))
	if err := aud.Err(); err != nil {
		t.Fatalf("pulse under audit: %v", err)
	}
	if res.LossRate == 0 {
		t.Errorf("pulse at a full BDP lost nothing: %+v", res)
	}
	if res.BufferPackets != link.BDP() {
		t.Errorf("buffer echoed as %d, want %d", res.BufferPackets, link.BDP())
	}

	aimd := s
	aimd.BufferPackets = link.BDP() / 10
	if got := run(aimd, bufsim.AdversarySyncAIMD); got.SyncIndex < 1.2 {
		t.Errorf("aimdsync sync index %.2f, want synchronized (>= 1.2)", got.SyncIndex)
	}

	if got := run(s, bufsim.AdversaryParkingLot); got.Utilization <= 0 || got.SyncIndex != 0 {
		t.Errorf("parking lot: %+v", got)
	}
}

// TestSimulateAdversaryValidate pins the checks: a cohort must be
// positive and the buffer not negative, while a zero buffer defaults to
// the BDP.
func TestSimulateAdversaryValidate(t *testing.T) {
	link := bufsim.Link{Rate: 20 * bufsim.Mbps, RTT: 80 * bufsim.Millisecond}
	for _, c := range []struct {
		flows, buffer int
		want          string
	}{
		{0, 0, "Adversary.Flows"},
		{4, -1, "Scenario.BufferPackets"},
	} {
		_, err := bufsim.Run(bufsim.Scenario{Link: link, BufferPackets: c.buffer}, bufsim.Adversary{Flows: c.flows})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("flows %d, buffer %d: error %v does not name %s", c.flows, c.buffer, err, c.want)
		}
	}
	s := bufsim.Scenario{Link: link, Warmup: bufsim.Second, Measure: bufsim.Second}
	if res, err := bufsim.Run(s, bufsim.Adversary{Flows: 4}); err != nil || res.BufferPackets != link.BDP() {
		t.Errorf("zero buffer: %+v, %v; want the BDP, %d packets", res, err, link.BDP())
	}
}

// TestParseAdversary covers the facade's name round-trip.
func TestParseAdversary(t *testing.T) {
	for _, name := range bufsim.AdversaryNames() {
		p, err := bufsim.ParseAdversary(name)
		if err != nil {
			t.Fatalf("ParseAdversary(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParseAdversary(%q) = %v", name, p)
		}
	}
	if _, err := bufsim.ParseAdversary("no-such-pattern"); err == nil {
		t.Error("unknown pattern did not error")
	}
}
