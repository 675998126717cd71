package experiment

import (
	"testing"

	"bufsim/internal/units"
)

func TestRunBackboneSmallBufferNoDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("backbone-scale simulation")
	}
	res := RunBackbone(BackboneConfig{
		Scenario: Scenario{Seed: 1, Path: Path{BottleneckRate: 600 * units.Mbps, Warmup: 8 * units.Second, Measure: 15 * units.Second}},
		N:        600,
	})
	// Structure: 1s x 600 Mb/s = 75000 packets; 0.5% = 375.
	if res.OneSecondBuffer != 75000 || res.SmallBuffer != 375 {
		t.Fatalf("buffer sizing wrong: %+v", res)
	}
	// §5.3: "no measurable degradation" — at this scale we accept < 3%.
	if res.UtilDegradation > 0.03 {
		t.Errorf("utilization degradation = %.2f%%, want < 3%%", 100*res.UtilDegradation)
	}
	// The latency win is the point: the worst queueing delay must be the
	// small buffer's drain time (~5 ms), three orders below the default
	// one-second buffer.
	maxDelay := units.TransmissionTime(1000*units.ByteSize(res.SmallBuffer), 600*units.Mbps)
	if res.Small.QueueDelayP99 > maxDelay+units.Millisecond {
		t.Errorf("P99 queueing delay %v exceeds buffer drain time %v",
			res.Small.QueueDelayP99, maxDelay)
	}
	if res.Small.QueueDelayP99 <= 0 {
		t.Error("queueing delay not measured")
	}
}

func TestQueueDelayPercentilesTrackBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulation runs")
	}
	base := scaledLongLived(30, 0)
	small := base
	small.BufferPackets = 30
	big := base
	big.BufferPackets = 250
	rs, rb := RunLongLived(small), RunLongLived(big)
	if rs.QueueDelayP99 >= rb.QueueDelayP99 {
		t.Errorf("P99 delay did not grow with buffer: %v vs %v",
			rs.QueueDelayP99, rb.QueueDelayP99)
	}
	if rs.QueueDelayMean > rs.QueueDelayP99 {
		t.Errorf("mean delay %v above P99 %v", rs.QueueDelayMean, rs.QueueDelayP99)
	}
	// P99 is bounded by the buffer drain time.
	drain := units.TransmissionTime(1000*30, 20*units.Mbps)
	if rs.QueueDelayP99 > drain+units.Millisecond {
		t.Errorf("P99 %v exceeds drain time %v", rs.QueueDelayP99, drain)
	}
}
