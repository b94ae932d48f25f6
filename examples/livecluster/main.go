// livecluster migrates a real process between two real TCP endpoints on
// this machine, with its workload drawn from the cluster scenario engine:
// the process replays a scenario mix's page-reference trace over actual
// 4 KiB byte pages, the freeze ships the PCB plus the three currently
// accessed pages, and the migrant remote-pages the rest from its origin —
// with AMPoM prefetching driven by the measured loopback round-trip time.
// The final memory checksum is compared against a never-migrated run.
//
//	go run ./examples/livecluster
//	go run ./examples/livecluster -mix blocked -pages 512
//	go run ./examples/livecluster -spec farm.json   # mix from a saved spec
package main

import (
	"flag"
	"fmt"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	pages := flag.Int("pages", 2048, "process footprint in 4 KiB pages")
	passes := flag.Int("passes", 2, "how many passes over the footprint")
	mixName := flag.String("mix", "sequential", "scenario mix to replay: sequential, blocked, random, small-ws")
	specFile := flag.String("spec", "", "replay the heaviest-weighted mix of this scenario spec file instead of -mix")
	flag.Parse()
	if *pages < 8 || *passes < 1 {
		cli.Usage("need -pages >= 8 and -passes >= 1")
	}

	var mix ampom.ScenarioMix
	if *specFile != "" {
		// One scenario process made flesh: the saved spec's dominant mix is
		// the trace shape this live run replays over real byte pages.
		spec, err := ampom.LoadScenarioSpec(*specFile)
		if err != nil {
			cli.Fail("%v", err)
		}
		best := spec.Mix[0]
		for _, m := range spec.Mix[1:] {
			if m.Weight > best.Weight {
				best = m
			}
		}
		mix = best.Kind
		fmt.Printf("mix %v drawn from spec %s (scenario %s)\n", mix, *specFile, spec.Name)
	} else {
		switch *mixName {
		case "sequential":
			mix = ampom.MixSequential
		case "blocked":
			mix = ampom.MixBlocked
		case "random":
			mix = ampom.MixRandom
		case "small-ws", "smallws":
			mix = ampom.MixSmallWS
		default:
			cli.Usage("unknown mix %q", *mixName)
		}
	}

	// The program is the same page-reference shape the scenario engine
	// simulates for this mix — the live run is one scenario process made
	// flesh.
	program := ampom.LiveProgramFor(mix, *pages, *passes, 7)
	fmt.Printf("replaying the %v scenario mix: %d passes over %d pages (%d MiB)\n",
		mix, *passes, *pages, *pages*4096>>20)

	// Baseline: the same program without migration.
	solo, err := ampom.ListenLiveNode("solo", "127.0.0.1:0")
	cli.Check(err)
	defer solo.Close()
	baseline := ampom.SpawnLiveProc(solo, 1, *pages, program, 7).RunLocal()

	// Two live nodes on the loopback.
	origin, err := ampom.ListenLiveNode("origin", "127.0.0.1:0")
	cli.Check(err)
	defer origin.Close()
	dest, err := ampom.ListenLiveNode("dest", "127.0.0.1:0")
	cli.Check(err)
	defer dest.Close()
	fmt.Printf("origin node %s, destination node %s\n", origin.Addr(), dest.Addr())

	proc := ampom.SpawnLiveProc(origin, 1, *pages, program, 7)
	proc.Step(*pages / 2) // every mix touches each page once a pass: run half a pass at the origin first

	fmt.Printf("migrating pid 1 mid-execution...\n")
	sum, st, err := ampom.MigrateLive(proc, dest.Addr(), ampom.LiveMigrateOptions{Prefetch: true})
	cli.Check(err)

	fmt.Printf("\nmigrant finished. memory checksum %016x\n", sum)
	fmt.Printf("baseline (never migrated)        %016x\n", baseline)
	if sum != baseline {
		cli.Fail("MEMORY CORRUPTED BY MIGRATION")
	}
	fmt.Println("memory preserved bit-for-bit ✓")
	fmt.Printf("\nfault requests  %d\n", st.FaultRequests)
	fmt.Printf("demand pages    %d\n", st.DemandPages)
	fmt.Printf("prefetched      %d (%.1f per request)\n",
		st.PrefetchPages, float64(st.PrefetchPages)/float64(st.FaultRequests))
	fmt.Printf("bytes fetched   %d\n", st.BytesFetched)
	fmt.Printf("pages at dest   %d, left at origin %d\n",
		st.ResidentPages, proc.LocalPages())
}
