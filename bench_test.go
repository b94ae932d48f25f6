// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one benchmark per artefact, plus micro-benchmarks of the hot paths.
//
// By default the experiment matrix runs at 1/16 of the paper's footprints
// so `go test -bench=.` completes in minutes; set AMPOM_BENCH_SCALE=1 to
// run the full Table 1 sizes (the numbers EXPERIMENTS.md records).
// Per-iteration metrics are reported with b.ReportMetric, so the benchmark
// output carries the same series the paper plots.
package ampom

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"

	"ampom/internal/core"
	"ampom/internal/harness"
	"ampom/internal/hpcc"
	"ampom/internal/memory"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// benchScale reads the campaign scale divisor from the environment.
func benchScale() int64 {
	if s := os.Getenv("AMPOM_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v >= 1 {
			return v
		}
	}
	return 16
}

func benchCampaign() *harness.Matrix {
	return harness.NewMatrix(harness.Config{Scale: benchScale(), Seed: 42})
}

// BenchmarkTable1Catalogue regenerates Table 1 (problem and memory sizes).
func BenchmarkTable1Catalogue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := renderFigure(b, benchCampaign(), "table1")
		if len(t.Rows) != 18 {
			b.Fatal("catalogue incomplete")
		}
	}
}

// BenchmarkFigure4Localities regenerates the locality quadrants.
func BenchmarkFigure4Localities(b *testing.B) {
	m := benchCampaign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := renderFigure(b, m, "fig4")
		if len(t.Rows) != 4 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFigure5FreezeTime regenerates the freeze-time series and reports
// the largest-DGEMM freeze per scheme as custom metrics.
func BenchmarkFigure5FreezeTime(b *testing.B) {
	m := benchCampaign()
	for i := 0; i < b.N; i++ {
		m = benchCampaign()
		if t := renderFigure(b, m, "fig5"); len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
	report575(b, m, func(r *migrate.Result) float64 { return r.Freeze.Seconds() }, "freeze_s")
}

// BenchmarkFigure6ExecutionTime regenerates the total-execution series.
func BenchmarkFigure6ExecutionTime(b *testing.B) {
	m := benchCampaign()
	for i := 0; i < b.N; i++ {
		m = benchCampaign()
		if t := renderFigure(b, m, "fig6"); len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
	report575(b, m, func(r *migrate.Result) float64 { return r.Total.Seconds() }, "total_s")
}

// BenchmarkFigure7PageFaults regenerates the fault-request series.
func BenchmarkFigure7PageFaults(b *testing.B) {
	m := benchCampaign()
	for i := 0; i < b.N; i++ {
		m = benchCampaign()
		if t := renderFigure(b, m, "fig7"); len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
	report575(b, m, func(r *migrate.Result) float64 { return float64(r.HardFaults) }, "fault_requests")
}

// BenchmarkFigure8PrefetchAggressiveness regenerates the prefetched-pages
// series.
func BenchmarkFigure8PrefetchAggressiveness(b *testing.B) {
	m := benchCampaign()
	for i := 0; i < b.N; i++ {
		m = benchCampaign()
		if t := renderFigure(b, m, "fig8"); len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
	report575(b, m, func(r *migrate.Result) float64 { return r.PrefetchPerRequest }, "prefetch_per_req")
}

// BenchmarkFigure9NetworkAdaptation regenerates the broadband adaptation
// bars.
func BenchmarkFigure9NetworkAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := renderFigure(b, benchCampaign(), "fig9"); len(t.Rows) != 4 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFigure10WorkingSets regenerates the small-working-set curves.
func BenchmarkFigure10WorkingSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := renderFigure(b, benchCampaign(), "fig10"); len(t.Rows) != 5 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFigure11Overhead regenerates the analysis-overhead series.
func BenchmarkFigure11Overhead(b *testing.B) {
	m := benchCampaign()
	for i := 0; i < b.N; i++ {
		m = benchCampaign()
		if t := renderFigure(b, m, "fig11"); len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
	report575(b, m, func(r *migrate.Result) float64 { return r.OverheadPct }, "overhead_pct")
}

// report575 attaches the largest-DGEMM AMPoM metric of the last matrix as a
// custom benchmark metric.
func report575(b *testing.B, m *harness.Matrix, f func(*migrate.Result) float64, unit string) {
	b.Helper()
	e := hpcc.Scaled(hpcc.Largest(hpcc.DGEMM), benchScale())
	w, err := hpcc.Build(e, 42)
	if err != nil {
		b.Fatal(err)
	}
	r, err := migrate.Run(migrate.RunConfig{Workload: w, Scheme: migrate.AMPoM, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(f(r), unit)
}

// Ablation benchmarks — the design-choice studies DESIGN.md calls out.

func BenchmarkAblationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := renderFigure(b, benchCampaign(), "ablation-baseline"); len(t.Rows) != 4 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationWindowLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := renderFigure(b, benchCampaign(), "ablation-window"); len(t.Rows) != 5 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationDMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := renderFigure(b, benchCampaign(), "ablation-dmax"); len(t.Rows) != 4 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationPrefetchCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := renderFigure(b, benchCampaign(), "ablation-cap"); len(t.Rows) != 4 {
			b.Fatal("ablation incomplete")
		}
	}
}

// Micro-benchmarks of the hot paths.

// BenchmarkAnalyze measures one AMPoM per-fault analysis (window scan,
// score, zone construction) — the cost Figure 11 bounds below 0.6 % of
// runtime.
func BenchmarkAnalyze(b *testing.B) {
	p := core.MustNew(core.DefaultConfig(), 1<<20)
	for i := 0; i < 20; i++ {
		p.RecordFault(memory.PageNum(1000+i), simtime.Time(i)*simtime.Time(simtime.Millisecond), 0.9)
	}
	est := core.Estimates{RTT: 20 * simtime.Millisecond, PageTransfer: 400 * simtime.Microsecond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := p.Analyze(est)
		if a.N == 0 {
			b.Fatal("degenerate analysis")
		}
	}
}

// BenchmarkRecordFault measures the window update path.
func BenchmarkRecordFault(b *testing.B) {
	p := core.MustNew(core.DefaultConfig(), 1<<20)
	for i := 0; i < b.N; i++ {
		p.RecordFault(memory.PageNum(i&0xffff), simtime.Time(i), 0.9)
	}
}

// BenchmarkMigrationRun measures one complete small AMPoM experiment
// end to end (workload build excluded).
func BenchmarkMigrationRun(b *testing.B) {
	w, err := hpcc.Build(hpcc.Scaled(hpcc.Largest(hpcc.STREAM), 64), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := migrate.Run(migrate.RunConfig{Workload: w, Scheme: migrate.AMPoM, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if r.PagesArrived == 0 {
			b.Fatal("no paging happened")
		}
	}
}

// BenchmarkLinkThroughput measures the network model's message path.
func BenchmarkLinkThroughput(b *testing.B) {
	eng := newEngine()
	a := netmodel.NewNIC(nil)
	c := netmodel.NewNIC(func(netmodel.Message) {})
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), a, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(a, netmodel.Message{Size: 4160})
		if i%1024 == 0 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

// BenchmarkCampaign runs the full figure/ablation matrix through the
// campaign engine, sequentially and through the worker pool. Per-job seeds
// are derived from the job key, so both variants produce byte-identical
// tables; on a multicore machine the parallel variant approaches a
// core-count speedup because the matrix is embarrassingly parallel.
func BenchmarkCampaign(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0}, // GOMAXPROCS workers
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := harness.NewMatrix(harness.Config{Scale: benchScale(), Seed: 42, Workers: v.workers})
				var names []string
				for _, a := range harness.Artefacts() {
					names = append(names, a.Name)
				}
				if _, err := m.Render(names...); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Engine().Executed()), "jobs/op")
			}
		})
	}
}

// BenchmarkScenario runs the 64-node / 256-process preset through the
// cluster scenario engine end to end (every registered balancing policy,
// star interconnect, infod daemons, prefetch census), so the perf trajectory
// captures cluster-scale numbers alongside the single-migration campaign.
func BenchmarkScenario(b *testing.B) {
	spec, err := ScenarioPreset("hpc-farm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Baseline().Makespan == 0 {
			b.Fatal("degenerate scenario run")
		}
		if i == b.N-1 {
			am, _ := rep.Scheme(PolicyAMPoM)
			b.ReportMetric(float64(am.Migrations), "migrations")
			b.ReportMetric(am.MeanSlowdown, "slowdown")
			b.ReportMetric(float64(am.Events), "events")
		}
	}
}

// BenchmarkPolicySweep runs the 64-node preset under every registered
// balancer policy (`make bench-balance`), so the overhead of dynamic
// policy dispatch — the price of the open registry over the old closed
// enum — is tracked alongside per-policy migration counts.
func BenchmarkPolicySweep(b *testing.B) {
	spec, err := ScenarioPreset("hpc-farm")
	if err != nil {
		b.Fatal(err)
	}
	// The canonical policy set is the whole registry.
	names := BalancerPolicyNames()
	if len(spec.Policies) != len(names) {
		b.Fatalf("preset runs %d policies, registry has %d", len(spec.Policies), len(names))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Schemes) != len(names) {
			b.Fatalf("report has %d rows, want %d", len(rep.Schemes), len(names))
		}
		if i == b.N-1 {
			for _, st := range rep.Schemes {
				if st.Policy == PolicyNoMigration {
					continue
				}
				b.ReportMetric(float64(st.Migrations), st.Policy+"_migrations")
			}
		}
	}
}

// BenchmarkPolicySweepSwitched runs the 512-node two-tier rack-farm
// preset under every registered balancer policy (`make bench-balance`),
// so the per-policy migration counts cover hand-offs of the per-source
// gossip views on a switched fabric as well as the star's ground-truth
// hand-offs BenchmarkPolicySweep covers.
func BenchmarkPolicySweepSwitched(b *testing.B) {
	spec, err := ScenarioPreset("rack-farm")
	if err != nil {
		b.Fatal(err)
	}
	names := BalancerPolicyNames()
	spec.Policies = names
	spec = spec.Canonical()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Schemes) != len(names) {
			b.Fatalf("report has %d rows, want %d", len(rep.Schemes), len(names))
		}
		if i == b.N-1 {
			for _, st := range rep.Schemes {
				if st.Policy == PolicyNoMigration {
					continue
				}
				b.ReportMetric(float64(st.Migrations), st.Policy+"_migrations")
			}
		}
	}
}

// fabric512EventBudget caps the rack-farm preset's event rate: the 512-node
// two-tier scenario must stay under this many engine events per simulated
// second, per policy. The gossip plane is the scaling hazard the budget
// polices — N daemons × fanout pushes per period, each crossing up to four
// store-and-forward hops — so a regression that floods the fabric (higher
// effective fanout, per-hop retransmits, runaway relays) trips the gate
// long before wall-clock noise would. Tightened from the original 24k once
// the incremental cluster view landed and the measured rate settled at
// ~3.3k events/sim-s; the budget keeps ~2× headroom.
const fabric512EventBudget = 6_500

// fabric4096EventBudget caps the mega-farm preset (4096 nodes / 16384
// procs, 64-node racks, 4 s gossip period): measured ~13.5k events/sim-s
// per policy, gated with ~2× headroom. Together with fabric512EventBudget
// this pins the monitoring plane's event cost to roughly linear growth in
// cluster size (8× the nodes, ~4× the per-sim-second events at half the
// gossip cadence).
const fabric4096EventBudget = 27_000

// fabric4096ByteBudget caps the bytes one mega-farm run of
// BenchmarkFabric4096 allocates, most of them the gossip plane's heard
// sets and windows: measured 330.7 MB once samples were interned per
// origin and the cell index packed into 4-byte keys (450.7 MB before), so
// the gate sits at about 1.15× that. A field that regrows the cells, the
// wire entries or the index, or a per-send allocation coming back, trips
// it.
const fabric4096ByteBudget = 380_000_000

// assertEventBudget fails the benchmark if any policy row of rep exceeds
// budget events per simulated second, and reports per-policy rates on the
// final iteration.
func assertEventBudget(b *testing.B, rep *ScenarioReport, budget int, last bool) {
	b.Helper()
	for _, st := range rep.Schemes {
		simSeconds := st.Makespan.Seconds()
		if simSeconds <= 0 {
			b.Fatalf("%s: degenerate makespan", st.Policy)
		}
		evps := float64(st.Events) / simSeconds
		if evps > float64(budget) {
			b.Fatalf("%s: %0.f events/sim-s exceeds the %d budget (%d events over %.1f sim-s)",
				st.Policy, evps, budget, st.Events, simSeconds)
		}
		if last {
			b.ReportMetric(evps, st.Policy+"_ev_per_sim_s")
		}
	}
}

// BenchmarkFabric512 runs the 512-node / 2048-process rack-farm preset
// (two-tier switched fabric, gossip dissemination) end to end and asserts
// the event budget (`make bench-fabric`, part of `make ci`). The policy
// set is trimmed to the baseline, the headline policy and the gossip
// consumer so the CI gate stays minutes-scale; the budget applies to every
// row.
func BenchmarkFabric512(b *testing.B) {
	spec, err := ScenarioPreset("rack-farm")
	if err != nil {
		b.Fatal(err)
	}
	if spec.Nodes != 512 || spec.Procs != 2048 {
		b.Fatalf("rack-farm is %dn/%dp, want 512/2048", spec.Nodes, spec.Procs)
	}
	spec.Policies = []string{PolicyNoMigration, PolicyAMPoM, PolicyQueueGossip}
	spec = spec.Canonical()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		assertEventBudget(b, rep, fabric512EventBudget, i == b.N-1)
		if i == b.N-1 {
			qg, _ := rep.Scheme(PolicyQueueGossip)
			b.ReportMetric(float64(qg.Migrations), "qg_migrations")
		}
	}
}

// fabric512FailuresEventBudget caps the rack-farm-failures preset: the same
// 512-node fabric as BenchmarkFabric512 plus the failure script (two
// evacuating crashes, a rack-uplink flap, staggered recoveries). Failures
// are global events — a handful of crash/recover/link transitions per run —
// so the sustained rate must stay in the same band as the failure-free
// gate; a regression where the failure plane starts ticking per-process or
// per-quantum work (resweeping frozen procs, re-scheduling bounced
// payloads) trips this budget first. Measured ~4.4k events/sim-s per
// policy — above rack-farm's ~3.3k because stale gossip at the crashed
// nodes keeps steering migrations that bounce — gated with ~2× headroom
// like its siblings.
const fabric512FailuresEventBudget = 9_000

// BenchmarkFabric512Failures runs the rack-farm-failures preset end to end
// (`make bench-fabric`): the 512-node gate with node crashes, evacuation,
// fail-back and a link flap live. Alongside the event budget it reports the
// fail-back count, so CI notices if the failure script silently stops
// exercising the bounce path.
func BenchmarkFabric512Failures(b *testing.B) {
	spec, err := ScenarioPreset("rack-farm-failures")
	if err != nil {
		b.Fatal(err)
	}
	if spec.Nodes != 512 || spec.Procs != 2048 {
		b.Fatalf("rack-farm-failures is %dn/%dp, want 512/2048", spec.Nodes, spec.Procs)
	}
	spec.Policies = []string{PolicyNoMigration, PolicyAMPoM, PolicyQueueGossip}
	spec = spec.Canonical()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		assertEventBudget(b, rep, fabric512FailuresEventBudget, i == b.N-1)
		var crashes, failBacks int
		for _, st := range rep.Schemes {
			crashes += st.Crashes
			failBacks += st.FailBacks
			if st.Unfinished != 0 {
				b.Fatalf("%s: lost %d processes", st.Policy, st.Unfinished)
			}
		}
		if crashes == 0 {
			b.Fatal("failure preset recorded no crashes")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(failBacks), "fail_backs")
		}
	}
}

// BenchmarkFabric4096 runs the 4096-node / 16384-process mega-farm preset
// (64-node racks under an 8× oversubscribed core, 4 s gossip) end to end —
// the scale the incremental cluster view exists for: balance rounds touch
// only dirty nodes and gossip probes read live aggregates, so the order of
// magnitude over rack-farm costs event budget, not view bookkeeping. The
// same trimmed policy trio as the 512-node gate keeps the CI run
// minutes-scale; the events-per-sim-second budget applies to every row.
func BenchmarkFabric4096(b *testing.B) {
	spec, err := ScenarioPreset("mega-farm")
	if err != nil {
		b.Fatal(err)
	}
	if spec.Nodes != 4096 || spec.Procs != 16384 {
		b.Fatalf("mega-farm is %dn/%dp, want 4096/16384", spec.Nodes, spec.Procs)
	}
	spec.Policies = []string{PolicyNoMigration, PolicyAMPoM, PolicyQueueGossip}
	spec = spec.Canonical()
	b.ReportAllocs()
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&before)
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > fabric4096ByteBudget {
			b.Fatalf("one run allocated %d bytes, above the %d budget", bytes, fabric4096ByteBudget)
		}
		assertEventBudget(b, rep, fabric4096EventBudget, i == b.N-1)
		if i == b.N-1 {
			am, _ := rep.Scheme(PolicyAMPoM)
			b.ReportMetric(float64(am.Migrations), "ampom_migrations")
		}
	}
}

// fabric16384EventBudget caps the giga-farm preset (16384 nodes / 65536
// procs, 128-node racks, 4 s gossip period) — the scale the bounded
// partial-view gossip plane exists for. With full-membership pushes the
// plane alone would cost O(n²) entry transfers per period (268M entries a
// round at 16k nodes); windowed pushes pin the wire and merge cost to
// O(n·l), so quadrupling the cluster over mega-farm should roughly
// quadruple the event rate and no more. Measured ~60–64k events/sim-s per
// policy; the budget keeps ~2× headroom.
const fabric16384EventBudget = 125_000

// BenchmarkFabric16384 runs the 16384-node / 65536-process giga-farm
// preset end to end (`make bench-fabric`). Same trimmed policy trio as the
// smaller gates; the events-per-sim-second budget applies to every row.
func BenchmarkFabric16384(b *testing.B) {
	spec, err := ScenarioPreset("giga-farm")
	if err != nil {
		b.Fatal(err)
	}
	if spec.Nodes != 16384 || spec.Procs != 65536 {
		b.Fatalf("giga-farm is %dn/%dp, want 16384/65536", spec.Nodes, spec.Procs)
	}
	spec.Policies = []string{PolicyNoMigration, PolicyAMPoM, PolicyQueueGossip}
	spec = spec.Canonical()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenario(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		assertEventBudget(b, rep, fabric16384EventBudget, i == b.N-1)
		if i == b.N-1 {
			qg, _ := rep.Scheme(PolicyQueueGossip)
			b.ReportMetric(float64(qg.Migrations), "qg_migrations")
		}
	}
}

// BenchmarkFabric16384Shards is the giga-farm gate under the sharded
// event engine at one shard per rack (128): the same workload, required
// byte-identical to the sequential run — the event budget and migration
// metric below would trip on any divergence — with the per-rack event
// queues, gossip planes and link state advancing through conservative
// lookahead windows. On multi-core hosts the windows fan across
// goroutines; on a single core they run inline and measure the window
// machinery's overhead.
func BenchmarkFabric16384Shards(b *testing.B) {
	spec, err := ScenarioPreset("giga-farm")
	if err != nil {
		b.Fatal(err)
	}
	racks := (spec.Nodes + spec.Fabric.RackSize - 1) / spec.Fabric.RackSize
	spec.Policies = []string{PolicyNoMigration, PolicyAMPoM, PolicyQueueGossip}
	spec = spec.Canonical()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunScenarioShards(spec, 42, racks)
		if err != nil {
			b.Fatal(err)
		}
		assertEventBudget(b, rep, fabric16384EventBudget, i == b.N-1)
		if i == b.N-1 {
			qg, _ := rep.Scheme(PolicyQueueGossip)
			b.ReportMetric(float64(qg.Migrations), "qg_migrations")
			// The window scheduler's occupancy picture: how many lookahead
			// windows the run advanced through, what fraction degenerated to
			// single-threaded global syncs, and the cross-shard traffic. These
			// bound the achievable parallel speedup independently of core
			// count, so their trajectory is tracked next to the ns/op.
			if sh := qg.Sharding; sh != nil && sh.Group.Windows > 0 {
				g := sh.Group
				b.ReportMetric(float64(g.Windows), "windows")
				b.ReportMetric(float64(g.GlobalSyncWindows)/float64(g.Windows), "global_sync_frac")
				b.ReportMetric(float64(g.StagedEvents), "staged_events")
			}
		}
	}
}

// BenchmarkScenarioPresets fans every preset up to 512 nodes across the
// campaign worker pool — the ampom-cluster -scenario all path. The
// 4096-node mega-farm preset is gated separately (BenchmarkFabric4096,
// trimmed policy set) so this benchmark stays minutes-scale under the
// full six-policy registry.
func BenchmarkScenarioPresets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := NewCampaignEngine(CampaignOptions{BaseSeed: 42})
		jobs := make([]ScenarioJob, 0, 4)
		for _, spec := range ScenarioPresets() {
			if spec.Nodes <= 512 {
				jobs = append(jobs, ScenarioJob{Spec: spec})
			}
		}
		if _, err := eng.RunScenariosCtx(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}
