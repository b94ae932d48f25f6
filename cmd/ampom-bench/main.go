// Command ampom-bench regenerates the tables and figures of the paper's
// evaluation (Table 1, Figures 4–11) plus the repository's ablation
// studies, printing the same rows and series the paper reports.
//
// Usage:
//
//	ampom-bench                        # every figure at paper scale
//	ampom-bench -scale 16              # quick 1/16-scale pass
//	ampom-bench -figure fig7 -csv      # one figure, CSV output
//	ampom-bench -ablations             # the ablation studies as well
//	ampom-bench -j 8 -progress         # 8 workers, progress/ETA on stderr
//	ampom-bench -j 1                   # strictly sequential runs
//	ampom-bench -figure fig5 -cpuprofile cpu.prof -memprofile mem.prof  # pprof the run
//
// The requested artefacts' cells are fanned out across a worker pool as
// one batch; per-job seeds are derived from the job key, so any -j value
// renders byte-identical tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	artefacts := ampom.FigureArtefacts()
	var figures []string
	for _, a := range artefacts {
		if !a.Ablation {
			figures = append(figures, a.Name)
		}
	}
	want := "all, " + strings.Join(figures, ", ")
	scale := flag.Int64("scale", 1, "divide every Table 1 footprint by this (1 = paper scale)")
	figure := flag.String("figure", "all", "which artefact to print: "+want)
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	ablations := flag.Bool("ablations", false, "also run the ablation studies")
	progress := flag.Bool("progress", false, "report campaign progress and ETA on stderr")
	cf := cli.AddCampaignFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	if *scale < 1 {
		cli.Usage("-scale must be >= 1, have %d", *scale)
	}
	name := strings.ToLower(*figure)
	if name != "all" && !slices.Contains(figures, name) {
		cli.Usage("unknown figure %q (want %s)", *figure, want)
	}
	var names []string
	for _, a := range artefacts {
		if a.Ablation && *ablations || !a.Ablation && (name == "all" || name == a.Name) {
			names = append(names, a.Name)
		}
	}

	cfg := ampom.CampaignConfig{Scale: *scale, Seed: cf.Seed, Workers: cf.Workers}
	if *progress {
		cfg.Progress = func(p ampom.CampaignProgress) {
			fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d done (%d failed) elapsed %v eta %v    ",
				p.Done, p.Total, p.Failed, p.Elapsed.Round(1e8), p.ETA.Round(1e8))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	prof.Start()
	// Every failure is reported, not just the first. A partial failure
	// does not abort the run: the healthy artefacts still print, and the
	// exit code reports the damage.
	exitCode := cli.CodeOK
	out, err := ampom.NewCampaign(cfg).Render(names...)
	if err != nil {
		cli.Errorf("%v", err)
		exitCode = cli.CodeFail
	}
	printed := 0
	for i, r := range out {
		if r.Err != nil {
			cli.Errorf("skipping %s: %v", names[i], r.Err)
			exitCode = cli.CodeFail
			continue
		}
		if printed++; printed > 1 {
			fmt.Println()
		}
		if *csv {
			fmt.Printf("# %s\n%s", r.Table.Title, r.Table.CSV())
		} else {
			fmt.Print(r.Table.Render())
		}
	}
	// cli.Exit never returns, so the profiles are flushed explicitly rather
	// than deferred.
	prof.Write()
	cli.Exit(exitCode)
}
