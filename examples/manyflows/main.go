// Manyflows demonstrates the paper's headline result (§3): as the number
// of desynchronized long-lived flows grows, the buffer needed for full
// utilization shrinks like 1/sqrt(n). The example sweeps n at a fixed
// buffer of RTT x C / sqrt(n) and shows utilization staying high while
// the buffer collapses — the "remove 99% of the buffers" argument.
package main

import (
	"fmt"
	"log"

	"bufsim"
)

func main() {
	link := bufsim.Link{Rate: 40 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond}
	rot := link.RuleOfThumb()
	fmt.Printf("bottleneck %v, RTT %v, rule-of-thumb buffer = %d packets\n\n",
		link.Rate, link.RTT, rot)
	fmt.Println("flows   buffer(pkts)  vs rule-of-thumb   model-util   sim-util")

	for _, n := range []int{25, 100, 400} {
		buffer := link.SqrtRule(n)
		res, err := bufsim.Run(bufsim.Scenario{
			Seed:          int64(n),
			Link:          link,
			BufferPackets: buffer,
			Warmup:        15 * bufsim.Second,
			Measure:       30 * bufsim.Second,
		}, bufsim.LongLived{Flows: n, RTTSpread: 80 * bufsim.Millisecond})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d   %12d   %15.1f%%   %9.2f%%   %7.2f%%\n",
			n, buffer, 100*float64(buffer)/float64(rot),
			100*link.PredictUtilization(n, buffer), 100*res.Utilization)
	}

	fmt.Println()
	fmt.Println("The same scaling at backbone rates (no simulation, rules only):")
	backbone := bufsim.Link{Rate: 10 * bufsim.Gbps, RTT: 250 * bufsim.Millisecond}
	fmt.Printf("  10 Gb/s x 250 ms rule of thumb: %d packets (%.1f Gbit of DRAM)\n",
		backbone.RuleOfThumb(), float64(backbone.RuleOfThumb())*8000/1e9)
	n := 50000
	fmt.Printf("  with %d flows, sqrt rule:    %d packets (%.1f Mbit — on-chip SRAM)\n",
		n, backbone.SqrtRule(n), float64(backbone.SqrtRule(n))*8000/1e6)
}
