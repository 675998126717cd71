// Mixedtraffic reproduces the paper's Fig. 9 trade-off through the public
// API: short flows competing with long-lived flows complete *faster* when
// the router buffer shrinks from RTT×C to RTT×C/√n, because the standing
// queue — pure delay for everyone — disappears, while utilization barely
// moves.
package main

import (
	"fmt"
	"log"

	"bufsim"
)

func main() {
	link := bufsim.Link{Rate: 50 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond}
	const nLong = 100

	fmt.Printf("bottleneck %v, %d long-lived flows + short flows at 20%% load\n\n",
		link.Rate, nLong)
	fmt.Println("buffer            pkts   short-flow AFCT   utilization   mean queue")

	for _, tc := range []struct {
		name   string
		buffer int
	}{
		{"RTT*C (thumb)", link.RuleOfThumb()},
		{"RTT*C/sqrt(n)", link.SqrtRule(nLong)},
	} {
		res, err := bufsim.Run(bufsim.Scenario{
			Seed:          1,
			Link:          link,
			BufferPackets: tc.buffer,
			Warmup:        15 * bufsim.Second,
			Measure:       30 * bufsim.Second,
		}, bufsim.Mix{LongFlows: nLong, ShortLoad: 0.2, RTTSpread: 80 * bufsim.Millisecond})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %5d   %12.0fms   %10.1f%%   %7.0f pkts\n",
			tc.name, tc.buffer, res.AFCT.Milliseconds(),
			100*res.Utilization, res.MeanQueue)
	}

	fmt.Println("\nThe smaller buffer trades ~1-2 points of utilization for a much")
	fmt.Println("faster network as experienced by short flows — the paper's Fig. 9.")
}
