// Quickstart: size a router buffer with the paper's rules, predict the
// resulting utilization, and verify the prediction with a packet-level
// simulation — in about twenty lines.
package main

import (
	"fmt"
	"log"

	"bufsim"
)

func main() {
	// A congested 155 Mb/s (OC3) link whose flows average a 100 ms RTT.
	link := bufsim.Link{Rate: bufsim.OC3, RTT: 100 * bufsim.Millisecond}

	// The classical rule-of-thumb vs the paper's sqrt(n) rule.
	n := 400
	fmt.Printf("rule of thumb:     %5d packets\n", link.RuleOfThumb())
	fmt.Printf("RTT*C/sqrt(%d):   %5d packets (%.0f%% smaller)\n",
		n, link.SqrtRule(n),
		100*(1-float64(link.SqrtRule(n))/float64(link.RuleOfThumb())))

	// What does the Gaussian model predict for the smaller buffer?
	buffer := link.SqrtRule(n)
	fmt.Printf("model predicts:    %.2f%% utilization\n",
		100*link.PredictUtilization(n, buffer))

	// Check it with a packet-level simulation of 400 TCP Reno flows.
	fmt.Printf("simulating %d flows...\n", n)
	res, err := bufsim.Run(bufsim.Scenario{
		Seed:          1,
		Link:          link,
		BufferPackets: buffer,
		Warmup:        15 * bufsim.Second,
		Measure:       30 * bufsim.Second,
	}, bufsim.LongLived{Flows: n, RTTSpread: 80 * bufsim.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured:          %.2f%% utilization (loss %.2f%%, mean queue %.0f pkts)\n",
		100*res.Utilization, 100*res.LossRate, res.MeanQueue)
}
