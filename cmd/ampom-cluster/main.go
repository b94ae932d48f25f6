// Command ampom-cluster runs cluster-scale scenarios: declarative
// multi-node workloads driven end to end through the event engine, the
// interconnect fabric (star, two-tier or flat) with its oM_infoD
// monitoring plane, the pluggable load-balancer policies and the AMPoM
// prefetcher.
//
// Usage:
//
//	ampom-cluster                          # the hpc-farm preset (64 nodes / 256 procs)
//	ampom-cluster -scenario web-churn      # one named preset
//	ampom-cluster -scenario all -j 4       # every preset across 4 workers
//	ampom-cluster -list                    # list presets, topologies and policies
//	ampom-cluster -scenario hpc-farm -nodes 8 -procs 32   # shrink a preset
//	ampom-cluster -scenario rack-farm                     # 512 nodes, two-tier fabric
//	ampom-cluster -scenario hpc-farm -fabric two-tier     # override the topology
//	ampom-cluster -scenario rack-farm -gossip-window 8    # shrink the gossip window
//	ampom-cluster -scenario rack-farm -shards 4    # shard the event engine (same report bytes)
//	ampom-cluster -spec farm.json          # run a user-defined spec file
//	ampom-cluster -policies AMPoM,mem-usher                # restrict the policy set
//	ampom-cluster -spec farm.json -o report.json           # persist the report
//	ampom-cluster -scenario web-churn -dump-spec web.json  # write the spec out
//	ampom-cluster -store ./results         # persist reports; identical re-runs read from disk
//	ampom-cluster -scenario rack-farm -cpuprofile cpu.prof -memprofile mem.prof  # pprof the run (make profile)
//	ampom-cluster -server http://host:8091 -scenario hpc-farm -o r.json  # run via ampom-clusterd, same bytes
//	ampom-cluster -diff a.json b.json      # compare saved reports (exit 1 on divergence)
//	ampom-cluster -diff -diff-eps 0.01 a.json b.json       # floats gate at 1% relative
//	ampom-cluster -diff -diff-eps mean_slowdown=0.02 -summary a.json b.json
//
// Scenarios run through the campaign engine: the scenario seed is derived
// from -seed and the canonical spec fingerprint (policy set and fabric
// included), so any -j value renders byte-identical reports, files
// included.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	name := flag.String("scenario", "hpc-farm", "preset scenario to run, or all")
	specFile := flag.String("spec", "", "run the scenario from this JSON spec file (overrides -scenario)")
	policies := flag.String("policies", "", "comma-separated balancer policies (default: the spec's set, or every registered policy)")
	fabricFlag := flag.String("fabric", "", "override the interconnect topology: "+strings.Join(ampom.FabricTopologyNames(), ", "))
	gossipWindow := flag.Int("gossip-window", 0, "override the gossip window (entries per push) on switched fabrics")
	output := flag.String("o", "", "also write the report(s) to this file (.json or .csv)")
	dumpSpec := flag.String("dump-spec", "", "write the resolved spec to this JSON file and exit")
	diffMode := flag.Bool("diff", false, "compare two saved report files (JSON) and exit 1 on divergence")
	diffEps := flag.String("diff-eps", "", "with -diff: relative epsilon for float columns, either one value (0.01) or per-column (mean_slowdown=0.01,frozen_s=0.05); counts always compare exactly")
	diffSummary := flag.Bool("summary", false, "with -diff: one line per diverging column instead of one per field")
	list := flag.Bool("list", false, "list the preset scenarios, fabric topologies and registered policies, then exit")
	nodes := flag.Int("nodes", 0, "override the preset's node count")
	procs := flag.Int("procs", 0, "override the preset's process count")
	shards := flag.Int("shards", 1, "event-engine shards per scenario run (two-tier fabrics; clamped to the rack count; reports are byte-identical at any value)")
	storeDir := flag.String("store", "", "persistent result store directory: reports land there on completion and identical re-runs are served from disk")
	server := flag.String("server", "", "submit to a running ampom-clusterd at this URL instead of simulating locally (same flags, same output bytes)")
	apiKey := flag.String("api-key", "", "tenant API key for -server submissions")
	cf := cli.AddCampaignFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	if *diffMode {
		opts := ampom.ScenarioDiffOptions{RelEps: parseDiffEps(*diffEps), Summary: *diffSummary}
		if err := opts.Validate(); err != nil {
			cli.Usage("-diff-eps %s: %v", *diffEps, err)
		}
		diffReports(flag.Args(), opts)
		return
	}
	if *diffEps != "" || *diffSummary {
		cli.Usage("-diff-eps and -summary only apply to -diff")
	}

	// A bad -o extension is a pure argument mistake: reject it before any
	// scenario runs, with the usage exit code.
	outputExt := strings.ToLower(filepath.Ext(*output))
	if *output != "" && outputExt != ".json" && outputExt != ".csv" {
		cli.Usage("-o %s: want a .json or .csv extension", *output)
	}

	if *list {
		for _, n := range ampom.ScenarioPresetNames() {
			spec, err := ampom.ScenarioPreset(n)
			if err != nil {
				cli.Fail("%v", err)
			}
			fmt.Printf("%-14s %3d nodes  %4d procs  %-8s fabric  %s/%s arrivals, %d churn event(s)\n",
				spec.Name, spec.Nodes, spec.Procs, spec.Fabric.Topology, spec.Arrival, spec.Placement, len(spec.Churn))
		}
		fmt.Printf("fabrics: %s\n", strings.Join(ampom.FabricTopologyNames(), ", "))
		fmt.Printf("policies: %s\n", strings.Join(ampom.BalancerPolicyNames(), ", "))
		fmt.Printf("churn kinds: %s\n", strings.Join(ampom.ScenarioChurnKindNames(), ", "))
		return
	}

	// Zero keeps the preset's size; a negative one is a typo, not a shrink.
	if *nodes < 0 {
		cli.Usage("-nodes %d: want a positive node count", *nodes)
	}
	if *procs < 0 {
		cli.Usage("-procs %d: want a positive process count", *procs)
	}

	var specs []ampom.ScenarioSpec
	switch {
	case *specFile != "":
		spec, err := ampom.LoadScenarioSpec(*specFile)
		if err != nil {
			cli.Fail("%v", err)
		}
		specs = []ampom.ScenarioSpec{spec}
	case *name == "all":
		specs = ampom.ScenarioPresets()
	default:
		spec, err := ampom.ScenarioPreset(*name)
		if err != nil {
			cli.Usage("%v", err)
		}
		specs = []ampom.ScenarioSpec{spec}
	}
	for i := range specs {
		if *nodes > 0 {
			specs[i].Nodes = *nodes
			specs[i].Procs = 0 // rescale with the node count unless pinned
		}
		if *procs > 0 {
			specs[i].Procs = *procs
		}
		if *nodes > 0 || *procs > 0 {
			// Rescale the derived memory capacity with the new population,
			// matching what a hand-written spec of this size canonicalises to.
			specs[i].NodeMemMB = 0
		}
		if *policies != "" {
			specs[i].Policies = cli.PolicyList(*policies)
		}
		if *fabricFlag != "" {
			k, err := ampom.ParseFabricTopology(*fabricFlag)
			if err != nil {
				cli.Usage("%v", err)
			}
			// Only the topology is overridden; shape and gossip parameters
			// keep the spec's values (or their canonical defaults).
			specs[i].Fabric.Topology = k
		}
		if *gossipWindow != 0 {
			if *gossipWindow < 0 {
				cli.Usage("-gossip-window %d: want a positive entry count", *gossipWindow)
			}
			specs[i].Fabric.GossipWindow = *gossipWindow
		}
		specs[i] = specs[i].Canonical()
		if err := specs[i].Validate(); err != nil {
			cli.Usage("%v", err)
		}
	}

	if *dumpSpec != "" {
		if len(specs) != 1 {
			cli.Usage("-dump-spec needs exactly one scenario, have %d", len(specs))
		}
		cli.Check(ampom.SaveScenarioSpec(*dumpSpec, specs[0]))
		return
	}

	if *shards < 1 {
		cli.Usage("-shards %d: want a positive shard count", *shards)
	}
	if *server != "" && (prof.CPU != "" || prof.Mem != "") {
		cli.Usage("-cpuprofile/-memprofile profile local runs; with -server the simulation happens in the remote process")
	}
	prof.Start()

	// An interrupt (SIGINT/SIGTERM) drains gracefully in both modes: local
	// batches stop dispatching new scenarios while in-flight runs finish;
	// remote waits abort and report the jobs still pending server-side.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	var (
		reports  []*ampom.ScenarioReport
		exitCode = cli.CodeOK
	)
	if *server != "" {
		if *storeDir != "" {
			cli.Usage("-store applies to local runs; the server maintains its own store")
		}
		reports, exitCode = runRemote(ctx, *server, *apiKey, specs, *shards)
	} else {
		opts := ampom.CampaignOptions{Workers: cf.Workers, BaseSeed: cf.Seed}
		if *storeDir != "" {
			store, err := ampom.OpenResultStore(*storeDir)
			if err != nil {
				cli.Fail("%v", err)
			}
			opts.Store = store
		}
		eng := ampom.NewCampaignEngine(opts)
		batch := make([]ampom.ScenarioJob, len(specs))
		for i, s := range specs {
			batch[i] = ampom.ScenarioJob{Spec: s, Shards: *shards}
		}
		// A partial failure still prints every healthy report; the
		// aggregated failures go to stderr and the exit code reports them
		// (the ampom-bench convention).
		var err error
		reports, err = eng.RunScenariosCtx(ctx, batch)
		if err != nil {
			cli.Errorf("%v", err)
			exitCode = cli.CodeFail
		}
	}
	printed := false
	for _, r := range reports {
		if r == nil {
			continue
		}
		if printed {
			fmt.Println()
		}
		fmt.Print(r.Render())
		printed = true
	}
	if *output != "" {
		if err := writeReports(*output, reports); err != nil {
			cli.Errorf("%v", err)
			exitCode = cli.CodeFail
		}
	}
	// cli.Exit never returns, so the profiles are flushed explicitly rather
	// than deferred.
	prof.Write()
	cli.Exit(exitCode)
}

// runRemote is the -server client mode: each spec is submitted to the
// campaign service, waited on, and its stored report fetched — the same
// bytes a local run renders, since both sides are the one deterministic
// engine. Failures degrade per spec, like local partial failures.
func runRemote(ctx context.Context, url, apiKey string, specs []ampom.ScenarioSpec, shards int) ([]*ampom.ScenarioReport, int) {
	c := ampom.NewClusterClient(url)
	c.APIKey = apiKey
	reports := make([]*ampom.ScenarioReport, len(specs))
	exitCode := cli.CodeOK
	for i, spec := range specs {
		st, err := c.Submit(ctx, spec, shards)
		if err != nil {
			cli.Errorf("%s: %v", spec.Name, err)
			exitCode = cli.CodeFail
			continue
		}
		if st, err = c.Wait(ctx, st.Key); err != nil {
			cli.Errorf("%s: %v", spec.Name, err)
			exitCode = cli.CodeFail
			continue
		}
		if st.Status != "done" {
			cli.Errorf("%s: job %s %s: %s", spec.Name, st.Key, st.Status, st.Error)
			exitCode = cli.CodeFail
			continue
		}
		data, err := c.Result(ctx, st.Key, "json")
		if err != nil {
			cli.Errorf("%s: %v", spec.Name, err)
			exitCode = cli.CodeFail
			continue
		}
		reps, err := ampom.DecodeScenarioReports(data)
		if err != nil || len(reps) != 1 {
			cli.Errorf("%s: decoding server report: %v", spec.Name, err)
			exitCode = cli.CodeFail
			continue
		}
		reports[i] = reps[0]
	}
	return reports, exitCode
}

// parseDiffEps parses the -diff-eps flag: either one bare epsilon applied
// to every float column, or comma-separated column=eps entries (a bare
// value among them sets the default for unlisted columns).
func parseDiffEps(s string) map[string]float64 {
	if s == "" {
		return nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		col, val := "", part
		if i := strings.IndexByte(part, '='); i >= 0 {
			col, val = part[:i], part[i+1:]
		}
		eps, err := strconv.ParseFloat(val, 64)
		if err != nil {
			cli.Usage("-diff-eps %s: %q is not a non-negative epsilon", s, val)
		}
		out[col] = eps
	}
	return out
}

// diffReports compares two saved report artefacts and exits 1 when the
// recorded runs diverge under the options — the regression-gate mode.
func diffReports(args []string, opts ampom.ScenarioDiffOptions) {
	if len(args) != 2 {
		cli.Usage("-diff needs exactly two report files, have %d", len(args))
	}
	diffs, err := ampom.DiffScenarioReportFilesOpts(args[0], args[1], opts)
	cli.Check(err)
	if len(diffs) == 0 {
		if len(opts.RelEps) > 0 {
			fmt.Printf("reports equal within tolerance: %s == %s\n", args[0], args[1])
		} else {
			fmt.Printf("reports identical: %s == %s\n", args[0], args[1])
		}
		return
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	cli.Errorf("%d divergence(s) between %s and %s", len(diffs), args[0], args[1])
	cli.Exit(cli.CodeFail)
}

// writeReports persists the healthy reports to path; the extension picks
// the encoding. The JSON shape follows the *requested* batch size — a
// single-scenario run writes an object, a batch always an array, however
// many runs failed — so consumers can parse a file without sniffing it.
// CSV always shares one header.
func writeReports(path string, reports []*ampom.ScenarioReport) error {
	healthy := reports[:0:0]
	for _, r := range reports {
		if r != nil {
			healthy = append(healthy, r)
		}
	}
	if len(healthy) == 0 {
		return fmt.Errorf("-o %s: no healthy reports to write", path)
	}
	var (
		data []byte
		err  error
	)
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		if len(reports) == 1 {
			data, err = healthy[0].JSON()
		} else {
			data, err = ampom.ScenarioReportsJSON(healthy)
		}
	default: // the extension was validated at startup
		data = []byte(ampom.ScenarioReportsCSV(healthy))
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
