// Tracereplay drives the simulator with a recorded flow-level trace
// instead of a synthetic arrival process: the bundled trace.csv holds a
// minute of Poisson arrivals with heavy-tailed sizes (the shape a NetFlow
// export reduces to). The example replays it against three buffer sizes
// and reports what the flows experienced.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bufsim"
)

func main() {
	log.SetFlags(0)
	path := filepath.Join("examples", "tracereplay", "trace.csv")
	if _, err := os.Stat(path); err != nil {
		path = "trace.csv" // run from the example directory
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open trace: %v (run from the repository root)", err)
	}
	defer f.Close()
	flows, err := bufsim.ReadFlows(f)
	if err != nil {
		log.Fatal(err)
	}

	link := bufsim.Link{Rate: 20 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond}

	// This trace is dominated by short/medium flows at moderate load, so
	// the applicable rule is §4's burst-driven short-flow bound, not
	// RTT x C (there are not enough concurrent long flows for the sqrt
	// rule's n to be large). Estimate the load and the mean flow size
	// from the trace itself.
	var segments int64
	sizes := make([]int64, len(flows))
	for i, fl := range flows {
		segments += fl.Size
		sizes[i] = fl.Size
	}
	spanSec := (flows[len(flows)-1].Start - flows[0].Start).Seconds()
	load := float64(segments*8000) / spanSec / float64(link.Rate)
	bound := link.ShortFlowBufferForSizes(load, 0.025, sizes, 43)

	fmt.Printf("replaying %d recorded flows over %v (RTT %v)\n", len(flows), link.Rate, link.RTT)
	fmt.Printf("trace offers load %.2f, mean flow %d segments (heavy-tailed)\n",
		load, segments/int64(len(flows)))
	fmt.Printf("short-flow bound from the trace's own burst moments: %.0f packets\n\n", bound)
	fmt.Println("buffer              pkts    completed    AFCT")

	for _, tc := range []struct {
		name   string
		buffer int
	}{
		{"unlimited", 0},
		{"short-flow bound", int(bound)},
		{"starved", 8},
	} {
		res := bufsim.SimulateTrace(bufsim.TraceSimulation{
			Seed:          1,
			Link:          link,
			Flows:         flows,
			BufferPackets: tc.buffer,
			RTTSpread:     80 * bufsim.Millisecond,
		})
		fmt.Printf("%-18s %6d   %6d/%d   %6.0fms\n",
			tc.name, tc.buffer, res.Completed, len(flows), res.AFCT.Milliseconds())
	}
	fmt.Println("\nThe bound-sized buffer tracks the infinite-buffer completion times;")
	fmt.Println("starving it shows what under-buffering costs. Swap trace.csv for your")
	fmt.Println("own start_seconds,size_segments export to answer the question for")
	fmt.Println("traffic you actually carry.")
}
