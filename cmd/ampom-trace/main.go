// Command ampom-trace inspects a workload's page reference stream: its
// locality scores (the Figure 4 axes), footprint coverage, and a window-
// by-window AMPoM dry run showing the spatial locality score and dependent
// zone size the algorithm would compute.
//
// Usage:
//
//	ampom-trace -kernel FFT -mb 65
//	ampom-trace -kernel STREAM -mb 16 -windows 10
package main

import (
	"flag"
	"fmt"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	kernel := flag.String("kernel", "STREAM", "HPCC kernel: DGEMM, STREAM, RandomAccess, FFT")
	mb := flag.Int64("mb", 16, "process footprint in MB")
	windows := flag.Int("windows", 5, "how many AMPoM dry-run windows to print")
	seed := cli.AddSeedFlag(flag.CommandLine)
	flag.Parse()

	k, err := ampom.ParseKernel(*kernel)
	if err != nil {
		cli.Usage("%v", err)
	}
	if *mb <= 0 {
		cli.Usage("-mb %d: want a positive footprint", *mb)
	}
	if *windows < 0 {
		cli.Usage("-windows %d: want a non-negative window count", *windows)
	}

	// Build/run failures are runtime failures (exit 1), not usage errors —
	// the ampom-bench convention.
	w, err := ampom.BuildWorkload(ampom.Entry{Kernel: k, ProblemSize: *mb, MemoryMB: *mb}, *seed)
	cli.Check(err)

	spatial, temporal := ampom.Locality(w)
	fmt.Printf("workload        %s\n", w.Name)
	fmt.Printf("pages           %d (%d refs, working set %d pages)\n", w.Layout.Pages(), w.Refs, w.WorkingSetPages)
	fmt.Printf("base compute    %v (init %v)\n", w.BaseCompute, w.InitCompute)
	fmt.Printf("spatial score   %.3f\n", spatial)
	fmt.Printf("temporal score  %.3f\n", temporal)

	// Dry-run the AMPoM window over the first distinct page touches, the
	// stream the prefetcher would see if every first touch faulted.
	pre, err := ampom.NewPrefetcher(ampom.DefaultPrefetcherConfig(), w.Layout.Pages())
	cli.Check(err)
	est := ampom.Estimates{RTT: 20_000_000, PageTransfer: 400_000} // 20 ms / 0.4 ms
	src := w.Source.Open()
	seen := map[ampom.PageNum]bool{}
	var t ampom.Time
	printed := 0
	fmt.Printf("\nAMPoM dry run (every 20 first-touch faults, assumed RTT 20ms):\n")
	fmt.Printf("%-8s %-8s %-10s %-6s %-8s %s\n", "fault#", "S", "r (flt/s)", "N", "streams", "pivots")
	for printed < *windows {
		ref, ok := src.Next()
		if !ok {
			break
		}
		if seen[ref.Page] {
			continue
		}
		seen[ref.Page] = true
		t += 400_000 // network-paced first touches
		pre.RecordFault(ref.Page, t, 1)
		if pre.Faults()%20 == 0 {
			a := pre.Analyze(est) // a.Pivots is printed before the next Analyze reuses it
			fmt.Printf("%-8d %-8.3f %-10.0f %-6d %-8d %v\n",
				pre.Faults(), a.Score, a.PagingRate, a.N, a.Streams, a.Pivots)
			printed++
		}
	}
}
