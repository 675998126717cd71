// Singleflow reproduces the intuition behind the rule of thumb (the
// paper's §2 and Figs. 2–5): one long-lived TCP flow through a bottleneck,
// simulated at three buffer sizes. With B = RTT x C the queue drains to
// exactly zero as the sender pauses after halving its window; smaller
// buffers starve the link; larger ones only add delay.
package main

import (
	"fmt"
	"log"

	"bufsim"
)

func main() {
	link := bufsim.Link{Rate: 10 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond}
	fmt.Printf("bottleneck %v, RTT %v, BDP = %d packets\n\n",
		link.Rate, link.RTT, link.BDP())

	s := bufsim.Scenario{Seed: 1, Link: link}
	for _, factor := range []float64{0.125, 1.0, 2.0} {
		res, err := bufsim.Run(s, bufsim.SingleFlow{BufferFactor: factor})
		if err != nil {
			log.Fatal(err)
		}
		regime := "exactly buffered (Fig. 3): queue just touches zero, link stays busy"
		switch {
		case factor < 1:
			regime = "underbuffered (Fig. 4): link goes idle while the sender pauses"
		case factor > 1:
			regime = "overbuffered (Fig. 5): full throughput but a standing queue adds delay"
		}
		fmt.Printf("buffer %.3fx BDP = %4d packets -> utilization %6.2f%%, "+
			"mean queue %5.1f, min queue %3.0f\n    %s\n\n",
			factor, res.BufferPackets, 100*res.Utilization,
			res.MeanQueue, res.MinQueueSeen, regime)
	}

	// Show the first seconds of the sawtooth numerically: window and
	// queue rise together, then the drop halves the window and the
	// buffer absorbs the pause.
	res, err := bufsim.Run(s, bufsim.SingleFlow{BufferFactor: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sawtooth samples (t, cwnd, queue):")
	step := len(res.Cwnd.Times) / 24
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(res.Cwnd.Times) && i < 24*step; i += step {
		fmt.Printf("  t=%7.2fs  W=%6.1f  Q=%5.0f\n",
			res.Cwnd.Times[i], res.Cwnd.Values[i], res.Queue.Values[i])
	}
}
