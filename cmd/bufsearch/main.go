// Command bufsearch empirically finds the minimum buffer that meets a
// utilization target for a given link and flow count, by bisecting over
// packet-level simulations, and compares the answer against the paper's
// rules.
//
//	bufsearch -rate 155Mbps -rtt 100ms -flows 300 -target 0.995
//
// -variant selects the congestion control the searched flows run
// (reno, tahoe, newreno, sack, cubic, bbr). -compare-cc instead sweeps
// every registered family at once and reports each one's minimum buffer
// against the sqrt rule — the updated-buffer-sizing-theory comparison;
// in that mode -target is the fraction of each family's own attainable
// utilization (rate-based controllers never reach an absolute 98%).
//
//	bufsearch -rate 155Mbps -flows 100,300 -compare-cc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"bufsim/internal/experiment"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bufsearch: ")

	var (
		rateStr   = flag.String("rate", "155Mbps", "bottleneck capacity C")
		rttStr    = flag.String("rtt", "100ms", "mean two-way propagation delay")
		spreadStr = flag.String("rtt-spread", "40ms", "RTT heterogeneity across flows")
		flowsStr  = flag.String("flows", "300", "number of long-lived TCP flows (comma-separated list with -compare-cc)")
		target    = flag.Float64("target", 0.98, "utilization target in (0,1); with -compare-cc, relative to each family's ceiling")
		varStr    = flag.String("variant", "reno", "congestion control variant ("+strings.Join(tcp.VariantNames(), ", ")+")")
		compareCC = flag.Bool("compare-cc", false, "compare the min buffer of every CC family against the sqrt rule")
		segment   = flag.Int("segment", int(units.DefaultSegment), "segment size in bytes")
		seed      = flag.Int64("seed", 1, "simulation seed")
		warmStr   = flag.String("warmup", "15s", "simulated warmup to discard")
		measStr   = flag.String("measure", "30s", "simulated measurement window")
		replicas  = flag.Int("replicas", 0, "confirm the found minimum across this many extra seeds")
		par       = flag.Int("parallel", 0, "max confirmation runs in flight (0: all CPUs)")
	)
	flag.Parse()

	rate, err := units.ParseBitRate(*rateStr)
	if err != nil {
		log.Fatal(err)
	}
	rtt, err := units.ParseDuration(*rttStr)
	if err != nil {
		log.Fatal(err)
	}
	spread, err := units.ParseDuration(*spreadStr)
	if err != nil {
		log.Fatal(err)
	}
	warmup, err := units.ParseDuration(*warmStr)
	if err != nil {
		log.Fatal(err)
	}
	measure, err := units.ParseDuration(*measStr)
	if err != nil {
		log.Fatal(err)
	}
	if *target <= 0 || *target >= 1 {
		log.Fatal("-target must be in (0,1)")
	}
	variant, err := tcp.ParseVariant(*varStr)
	if err != nil {
		log.Fatal(err)
	}
	var flowCounts []int
	for _, s := range strings.Split(*flowsStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("-flows: %q is not a positive flow count", s)
		}
		flowCounts = append(flowCounts, n)
	}

	path := experiment.Path{
		BottleneckRate: rate,
		RTTMin:         rtt - spread/2,
		RTTMax:         rtt + spread/2,
		SegmentSize:    units.ByteSize(*segment),
		Warmup:         warmup,
		Measure:        measure,
	}
	if *compareCC {
		table := experiment.RunCCFamily(experiment.CCFamilyConfig{
			Seed:   *seed,
			Ns:     flowCounts,
			Path:   path,
			Target: *target,
			RunEnv: experiment.RunEnv{Parallelism: *par},
		})
		fmt.Printf("min buffer per CC family at %.0f%% of each family's ceiling: %v, RTT %v\n",
			100**target, rate, rtt)
		if err := experiment.Render(os.Stdout, table); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(flowCounts) != 1 {
		log.Fatal("-flows takes a single count unless -compare-cc is set")
	}
	flows := &flowCounts[0]

	bdp, sqrtRule := path.BDP(), path.SqrtRule(*flows)
	cfg := experiment.LongLivedConfig{
		Seed:    *seed,
		N:       *flows,
		Path:    path,
		Variant: variant,
		RunEnv:  experiment.RunEnv{Parallelism: *par},
	}

	fmt.Printf("searching min buffer for %.1f%% utilization: %v, RTT %v, %d %v flows\n",
		100**target, rate, rtt, *flows, variant)
	fmt.Printf("rule of thumb %d pkts; RTTxC/sqrt(n) %d pkts\n", bdp, sqrtRule)
	fmt.Printf("each probe simulates %v (+%v warmup)...\n", measure, warmup)

	hi := 2 * bdp
	min := experiment.MinBufferForUtilization(cfg, *target, hi)
	util := experiment.MeasuredUtilization(cfg, min)

	fmt.Printf("\nminimum buffer: %d packets (%.2fx the sqrt rule, %.1f%% of rule of thumb)\n",
		min, float64(min)/float64(sqrtRule), 100*float64(min)/float64(bdp))
	fmt.Printf("utilization at minimum: %.2f%%\n", 100*util)
	if min == hi {
		fmt.Println("warning: target not reached within 2x rule-of-thumb; reporting the bound")
	}

	if *replicas > 1 {
		confirm := cfg
		confirm.BufferPackets = min
		rep := experiment.RunLongLivedReplicated(confirm, *replicas)
		fmt.Printf("across %d seeds: utilization %.2f%% +- %.2f%% (min %.2f%%, max %.2f%%)\n",
			rep.Replicas, 100*rep.MeanUtilization, 100*rep.StdDev, 100*rep.Min, 100*rep.Max)
	}
}
