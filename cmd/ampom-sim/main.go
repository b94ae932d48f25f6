// Command ampom-sim runs migration experiments on the simulated cluster and
// prints their full results: phase timings, fault census, paging statistics
// and AMPoM diagnostics.
//
// Usage:
//
//	ampom-sim -kernel STREAM -mb 575 -scheme ampom
//	ampom-sim -kernel RandomAccess -mb 129 -scheme noprefetch -network broadband
//	ampom-sim -kernel DGEMM -alloc 575 -mb 115    # §5.6 working-set variant
//	ampom-sim -kernel DGEMM -mb 575 -scheme all -j 4   # compare all schemes
//
// Experiments run through the campaign engine: the per-experiment PRNG seed
// is derived from -seed and the workload key, so results are reproducible
// and match the cells ampom-bench renders. -scheme all fans every scheme
// out across -j workers.
package main

import (
	"flag"
	"fmt"
	"strings"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	kernel := flag.String("kernel", "DGEMM", "HPCC kernel: DGEMM, STREAM, RandomAccess, FFT")
	mb := flag.Int64("mb", 115, "process footprint in MB (working set for -alloc runs)")
	alloc := flag.Int64("alloc", 0, "if set, allocate this many MB but touch only -mb (§5.6)")
	scheme := flag.String("scheme", "ampom", "migration scheme: ampom, openmosix, noprefetch, or all")
	network := flag.String("network", "fast", "network: fast (100Mb/s) or broadband (6Mb/s)")
	load := flag.Float64("load", 0, "background network load fraction [0,0.95]")
	cf := cli.AddCampaignFlags(flag.CommandLine)
	flag.Parse()

	k, err := ampom.ParseKernel(*kernel)
	if err != nil {
		cli.Usage("%v", err)
	}

	var net ampom.NetworkProfile
	switch strings.ToLower(*network) {
	case "fast":
		net = ampom.FastEthernet()
	case "broadband":
		net = ampom.Broadband()
	default:
		cli.Usage("unknown network %q (want fast or broadband)", *network)
	}
	if !(*load >= 0 && *load <= 0.95) {
		cli.Usage("-load %g outside [0, 0.95]", *load)
	}

	eng := ampom.NewCampaignEngine(ampom.CampaignOptions{Workers: cf.Workers, BaseSeed: cf.Seed})

	job := ampom.CampaignJob{
		Kernel: k, MemoryMB: *mb, AllocMB: *alloc,
		Network: net, BackgroundLoad: *load,
	}

	var schemes []ampom.Scheme
	switch strings.ToLower(*scheme) {
	case "ampom":
		schemes = []ampom.Scheme{ampom.SchemeAMPoM}
	case "openmosix", "om":
		schemes = []ampom.Scheme{ampom.SchemeOpenMosix}
	case "noprefetch", "np", "ffa":
		schemes = []ampom.Scheme{ampom.SchemeNoPrefetch}
	case "all":
		schemes = ampom.Schemes()
	case "all5":
		schemes = ampom.AllSchemes()
	default:
		cli.Usage("unknown scheme %q (want ampom, openmosix, noprefetch, all, all5)", *scheme)
	}

	batch := make([]ampom.CampaignJob, len(schemes))
	for i, s := range schemes {
		j := job
		j.Scheme = s
		batch[i] = j
	}
	// A partial failure still prints every healthy scheme's row; the
	// aggregated failures go to stderr and the exit code reports them (the
	// ampom-bench convention: 1 for failed runs, 2 only for usage errors).
	results, err := eng.RunAll(batch)
	if err != nil {
		cli.Errorf("%v", err)
	}
	if len(results) == 1 {
		if results[0] == nil {
			cli.Exit(cli.CodeFail)
		}
		printResult(results[0])
		return
	}
	printComparison(results)
	if err != nil {
		cli.Exit(cli.CodeFail)
	}
}

// printResult dumps one experiment in the classic ampom-sim format.
func printResult(r *ampom.Result) {
	fmt.Printf("workload        %s (%d MB)\n", r.Workload, r.MemoryMB)
	fmt.Printf("scheme          %v on %s\n", r.Scheme, r.Network)
	fmt.Printf("init            %v\n", r.Init)
	fmt.Printf("freeze          %v\n", r.Freeze)
	fmt.Printf("exec            %v\n", r.Exec)
	fmt.Printf("total           %v\n", r.Total)
	fmt.Printf("faults          %d (hard %d, wait %d, soft %d)\n",
		r.Faults, r.HardFaults, r.WaitFaults, r.SoftFaults)
	fmt.Printf("requests        %d (%d prefetch-only)\n", r.RequestsSent, r.PrefetchOnly)
	fmt.Printf("pages moved     %d demand + %d prefetched\n", r.DemandPages, r.PrefetchPages)
	fmt.Printf("bytes to dest   %d\n", r.BytesToDest)
	fmt.Printf("stall time      %v\n", r.StallTime)
	if r.Scheme == ampom.SchemeAMPoM {
		fmt.Printf("prefetch/req    %.1f\n", r.PrefetchPerRequest)
		fmt.Printf("mean S / N      %.3f / %.1f\n", r.MeanScore, r.MeanN)
		fmt.Printf("analysis time   %v (%.3f%% of exec)\n", r.AnalysisTime, r.OverheadPct)
		fmt.Printf("final RTT est   %v\n", r.FinalRTTEst)
	}
	fmt.Printf("sim events      %d\n", r.Events)
}

// printComparison renders the -scheme all side-by-side table from the
// healthy results; failed slots (nil) are simply absent.
func printComparison(results []*ampom.Result) {
	var r0 *ampom.Result
	for _, r := range results {
		if r != nil {
			r0 = r
			break
		}
	}
	if r0 == nil {
		return // every scheme failed; the aggregated error is on stderr
	}
	t := &ampom.FigureTable{
		Title:  fmt.Sprintf("Scheme comparison: %s (%d MB) on %s", r0.Workload, r0.MemoryMB, r0.Network),
		Header: []string{"scheme", "freeze (s)", "total (s)", "fault requests", "prefetched", "MB moved"},
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		t.Rows = append(t.Rows, []string{
			r.Scheme.String(),
			fmt.Sprintf("%.3f", r.Freeze.Seconds()),
			fmt.Sprintf("%.3f", r.Total.Seconds()),
			fmt.Sprint(r.HardFaults),
			fmt.Sprint(r.PrefetchPages),
			fmt.Sprintf("%.1f", float64(r.BytesToDest)/1e6),
		})
	}
	fmt.Print(t.Render())
}
