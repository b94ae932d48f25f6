package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"time"

	"ampom/internal/campaign"
	"ampom/internal/fabric"
	"ampom/internal/scenario"
	"ampom/internal/sched"
)

// sjob is one scenario job of a workload: the campaign job, the base seed
// of the fresh engine it runs on, and the process count it must report.
type sjob struct {
	base  uint64
	job   campaign.ScenarioJob
	procs int
}

// scenarioPlan is a workload of cluster scenarios run through the campaign
// engine. A sweep (small-farms) times each scenario as one job and counts
// jobs as its operations; a single-scenario workload (rack-farm-failures,
// mega-farm-sharded) times each policy's simulation as one job and counts
// processes as its operations.
type scenarioPlan struct {
	env
	jobs      []sjob
	sweep     bool
	principal scenario.Spec // the spec the layer probes are shaped after
	mixes     []scenario.MixKind
}

// The four star presets of the small-farms sweep, and its sweep length:
// 13 seeds × 4 presets = 52 jobs per batch, so a run of at least two
// batches covers over 100 jobs.
var (
	starPresets = []string{"hpc-farm", "web-churn", "hetero-burst", "mpi-ranks"}
	sweepSeeds  = 13
)

// shrink resizes a preset for smoke runs, rescaling the derived node
// memory the way ampom-cluster -nodes/-procs does.
func shrink(s scenario.Spec, nodes, procs int) scenario.Spec {
	s.Nodes, s.Procs, s.NodeMemMB = nodes, procs, 0
	return s.Canonical()
}

// expectedProcs is the process count a report of spec must carry: the
// initial population plus every churn burst.
func expectedProcs(s scenario.Spec) int {
	n := s.Procs
	for _, c := range s.Churn {
		if c.Kind == scenario.ChurnBurst {
			n += c.Procs
		}
	}
	return n
}

func resolve(name string, tiny bool, nodes, procs int, policies []string) (scenario.Spec, error) {
	s, err := scenario.Preset(name)
	if err != nil {
		return s, err
	}
	if policies != nil {
		s.Policies = policies
	}
	if tiny {
		s = shrink(s, nodes, procs)
	}
	s = s.Canonical()
	return s, s.Validate()
}

func setupSmallFarms(e env) (plan, error) {
	p := &scenarioPlan{env: e, sweep: true}
	seeds := sweepSeeds
	if e.tiny {
		seeds = 1
	}
	var specs []scenario.Spec
	for _, name := range starPresets {
		s, err := resolve(name, e.tiny, 8, 32, nil)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
		for _, m := range s.Mix {
			if !slices.Contains(p.mixes, m.Kind) {
				p.mixes = append(p.mixes, m.Kind)
			}
		}
	}
	p.principal = specs[0]
	for i := 0; i < seeds; i++ {
		base := campaign.DeriveSeed(e.seed, fmt.Sprintf("small-farms/%d", i))
		for _, s := range specs {
			p.jobs = append(p.jobs, sjob{base: base, job: campaign.ScenarioJob{Spec: s}, procs: expectedProcs(s)})
		}
	}
	return p, nil
}

func setupSingle(e env, name string, nodes, procs, shards int, policies []string) (plan, error) {
	s, err := resolve(name, e.tiny, nodes, procs, policies)
	if err != nil {
		return nil, err
	}
	p := &scenarioPlan{env: e, principal: s}
	for _, m := range s.Mix {
		p.mixes = append(p.mixes, m.Kind)
	}
	p.jobs = []sjob{{base: e.seed, job: campaign.ScenarioJob{Spec: s, Shards: shards}, procs: expectedProcs(s)}}
	return p, nil
}

func setupRackFarm(e env) (plan, error) {
	return setupSingle(e, "rack-farm-failures", 64, 256, 1, nil)
}

func setupMegaFarm(e env) (plan, error) {
	return setupSingle(e, "mega-farm", 256, 1024, e.shards,
		[]string{sched.NameNoMigration, sched.NameAMPoM, sched.NameQueueGossip})
}

func (p *scenarioPlan) shardCount() int { return max(1, p.jobs[0].job.Shards) }

func (p *scenarioPlan) shape() shape {
	s := p.principal
	f := s.Fabric.Canonical()
	return shape{
		fabric: fabric.Config{Kind: f.Topology, RackSize: f.RackSize, Oversub: f.Oversub,
			GossipFanout: f.GossipFanout, GossipPeriod: f.GossipPeriod, GossipWindow: f.GossipWindow,
			Network: s.Network, BackgroundLoad: s.BackgroundLoad, Seed: p.seed},
		nodes:       s.Nodes,
		procs:       s.Procs,
		mixes:       p.mixes,
		footprintMB: s.MeanFootprintMB,
		seed:        p.seed,
	}
}

// engines builds one fresh campaign engine per base seed, so no batch is
// served from an earlier batch's memoised reports.
func (p *scenarioPlan) engines(opts campaign.Options) map[uint64]*campaign.Engine {
	out := make(map[uint64]*campaign.Engine)
	for _, j := range p.jobs {
		if out[j.base] == nil {
			o := opts
			o.Workers, o.BaseSeed = 1, j.base
			out[j.base] = campaign.New(o)
		}
	}
	return out
}

// policyClock turns the per-policy completion hook into per-policy CPU
// times for the single-scenario workloads. One scenario runs at a time
// there, so the process's CPU time between two hooks is the policy run's,
// shard workers and collector included.
type policyClock struct {
	mu   sync.Mutex
	last time.Duration
	cpus []time.Duration
}

func (c *policyClock) start() {
	c.mu.Lock()
	c.last = processCPU()
	c.mu.Unlock()
}

func (c *policyClock) done(campaign.ScenarioProgress) {
	c.mu.Lock()
	cpu := processCPU()
	c.cpus = append(c.cpus, cpu-c.last)
	c.last = cpu
	c.mu.Unlock()
}

func (p *scenarioPlan) run() *batch {
	var clock policyClock
	var opts campaign.Options
	if !p.sweep {
		opts.OnScenarioProgress = clock.done
	}
	engs := p.engines(opts)
	reports := make([]*scenario.Report, len(p.jobs))
	errs := make([]error, len(p.jobs))
	l := closedLoop(len(p.jobs), p.workers, func(i int) {
		j := p.jobs[i]
		clock.start()
		reports[i], errs[i] = engs[j.base].RunScenario(j.job)
	})
	b := newBatch(l, len(p.jobs))
	if !p.sweep {
		b.jobCPU = clock.cpus
	}
	b.reports = reports
	p.finish(b, errs)
	return b
}

// finish checks every report and derives the batch's model metrics and
// per-layer counters.
func (p *scenarioPlan) finish(b *batch, errs []error) {
	h := sha256.New()
	var slowA, slowQ, prevent []float64
	var coreBytes, coreCap float64
	var shardEvents []float64
	var busy time.Duration
	for i, rep := range b.reports {
		j := p.jobs[i]
		ops := 1
		if !p.sweep {
			ops = j.procs * len(j.job.Spec.Policies)
		}
		b.attempted += ops
		if errs[i] != nil {
			b.failed += ops - 1
			b.fail("%v: %v", j.job, errs[i])
			continue
		}
		bad := p.check(b, j, rep, h)
		if p.sweep && bad > 0 {
			b.failed++
		}
		if !p.sweep {
			b.failed += bad
		}
		for _, st := range rep.Schemes {
			b.events += st.Events
			b.metrics["scenario.fail_backs"] += float64(st.FailBacks)
			b.metrics["scenario.evacuations"] += float64(st.Evacuations)
			if v := st.SojournP99.Seconds(); v > b.metrics["scenario.sojourn_p99_s"] {
				b.metrics["scenario.sojourn_p99_s"] = v
			}
			if st.Policy != sched.BaselineName {
				b.metrics["scenario.migrations."+st.Policy] += float64(st.Migrations)
				b.metrics["scenario.frozen_s."+st.Policy] += st.FrozenTotal.Seconds()
				b.metrics["scenario.migration_mb."+st.Policy] += float64(st.MigrationBytes) / 1e6
			}
			for _, t := range st.TierUse {
				b.metrics["fabric.bytes."+t.Name] += float64(t.Bytes) / 1e6
				if t.Name == "core" {
					coreBytes += float64(t.Bytes)
					coreCap += t.CapacityBps * st.Makespan.Seconds()
				}
			}
			switch st.Policy {
			case sched.NameAMPoM:
				slowA = append(slowA, st.MeanSlowdown)
				if n := st.HardFaults + st.PrefetchPages; n > 0 {
					prevent = append(prevent, float64(st.PrefetchPages)/float64(n))
				}
			case sched.NameQueueGossip:
				slowQ = append(slowQ, st.MeanSlowdown)
			}
			if sh := st.Sharding; sh != nil {
				g := sh.Group
				b.metrics["sim.windows"] += float64(g.Windows)
				b.metrics["sim.global_sync_windows"] += float64(g.GlobalSyncWindows)
				b.metrics["sim.staged_events"] += float64(g.StagedEvents)
				for k, ev := range g.ShardEvents {
					if k >= len(shardEvents) {
						shardEvents = append(shardEvents, 0)
					}
					shardEvents[k] += float64(ev)
				}
				for _, d := range g.ShardBusy {
					busy += d
				}
			}
		}
	}
	b.digest = fmt.Sprintf("%x", h.Sum(nil))
	b.metrics["slowdown.AMPoM"] = mean(slowA)
	b.metrics["scenario.slowdown.queue-gossip"] = mean(slowQ)
	b.metrics["fault_prevention"] = mean(prevent)
	if coreCap > 0 {
		b.metrics["fabric.core_util"] = coreBytes / coreCap
	}
	if w := b.metrics["sim.windows"]; w > 0 {
		b.metrics["sim.global_sync_frac"] = b.metrics["sim.global_sync_windows"] / w
	}
	if len(shardEvents) > 0 {
		hi := slices.Max(shardEvents)
		b.metrics["sim.shard_imbalance"] = hi / mean(shardEvents)
		b.metrics["sim.shard_busy_frac"] = busy.Seconds() / (b.wall.Seconds() * float64(len(shardEvents)))
	}
}

// check applies the output checks to one report and returns how many
// operations they failed: every process of every policy row finished, the
// report carries the expected processes and rows, and it re-encodes
// byte-identically through the JSON codec. The encoded bytes feed the
// model digest.
func (p *scenarioPlan) check(b *batch, j sjob, rep *scenario.Report, digest io.Writer) int {
	bad := 0
	if rep.Procs != j.procs {
		b.problems = append(b.problems, fmt.Sprintf("%v: report has %d processes, want %d", j.job, rep.Procs, j.procs))
		bad++
	}
	if len(rep.Schemes) != len(j.job.Spec.Policies) {
		b.problems = append(b.problems, fmt.Sprintf("%v: report has %d policy rows, want %d", j.job, len(rep.Schemes), len(j.job.Spec.Policies)))
		bad++
	}
	for _, st := range rep.Schemes {
		if st.Unfinished != 0 {
			b.problems = append(b.problems, fmt.Sprintf("%v: %s left %d processes unfinished", j.job, st.Policy, st.Unfinished))
			bad += st.Unfinished
		}
	}
	data, err := scenario.ReportsJSON([]*scenario.Report{rep})
	if err == nil {
		var back []*scenario.Report
		if back, err = scenario.DecodeReports(data); err == nil {
			var again []byte
			if again, err = scenario.ReportsJSON(back); err == nil && !bytes.Equal(data, again) {
				err = fmt.Errorf("re-encoded report differs")
			}
		}
	}
	if err != nil {
		b.problems = append(b.problems, fmt.Sprintf("%v: JSON round trip: %v", j.job, err))
		bad++
	}
	digest.Write(data)
	return bad
}

// sameModelRow reports whether two policy rows agree in every model
// column; the policy label and the execution telemetry may differ.
func sameModelRow(a, b scenario.SchemeStats) bool {
	a.Policy, b.Policy = "", ""
	a.Sharding, b.Sharding = nil, nil
	return reflect.DeepEqual(a, b)
}

// runTraced re-runs every job with the deterministic non-baseline policies
// wrapped in decision timers, spans per job and per policy, and checks
// each wrapped row against its untraced twin. A sharded workload is also
// run once on the sequential engine: its report must be byte-identical,
// and the two wall times give the shard speedup.
func (p *scenarioPlan) runTraced(tr *tracer, root int, ref *batch) *batch {
	n := len(p.jobs)
	specs := make([]scenario.Spec, n)
	seeds := make([]uint64, n)
	inner := make([]map[string]string, n) // traced name -> wrapped policy
	stats := make([]map[string]*decideStats, n)
	engs := p.engines(campaign.Options{})
	pre := &batch{metrics: map[string]float64{}}
	for i, j := range p.jobs {
		// Bypassing the campaign cache keeps the job's own seed: the
		// wrapped names would otherwise change the fingerprint.
		seeds[i] = engs[j.base].SeedForScenario(j.job)
		spec := j.job.Spec
		inner[i], stats[i] = map[string]string{}, map[string]*decideStats{}
		var names []string
		for _, name := range spec.Policies {
			if !slices.Contains(tracedNames, name) {
				names = append(names, name)
				continue
			}
			tn, st, err := wrapPolicy(name)
			if err != nil {
				pre.fail("wrapping %s: %v", name, err)
				names = append(names, name)
				continue
			}
			names = append(names, tn)
			inner[i][tn], stats[i][tn] = name, st
		}
		spec.Policies = names
		specs[i] = spec
	}
	polWall := make([]map[string]time.Duration, n)
	reports := make([]*scenario.Report, n)
	errs := make([]error, n)
	l := closedLoop(n, p.workers, func(i int) {
		js := tr.begin(root, "campaign", "job "+p.jobs[i].job.String())
		polWall[i] = map[string]time.Duration{}
		last := time.Now()
		hook := func(pp scenario.PolicyProgress) {
			now := time.Now()
			name := pp.Policy
			if in, ok := inner[i][pp.Policy]; ok {
				name = in
			}
			ps := tr.add(js, "scenario", "policy "+name, last, now.Sub(last), 0, false)
			if st := stats[i][pp.Policy]; st != nil {
				tr.add(ps, "sched", "decide "+name, last, st.dur, st.calls, true)
			}
			polWall[i][name] += now.Sub(last)
			last = now
		}
		reports[i], errs[i] = scenario.RunShardsHook(specs[i], seeds[i], p.jobs[i].job.Shards, hook)
		tr.end(js)
	})
	b := newBatch(l, n)
	b.failed, b.problems = pre.failed, pre.problems
	var total time.Duration
	polTotal := map[string]time.Duration{}
	for i := range p.jobs {
		b.attempted++
		if errs[i] != nil || ref.reports[i] == nil {
			b.fail("%v: traced run: %v", p.jobs[i].job, errs[i])
			continue
		}
		for name, d := range polWall[i] {
			polTotal[name] += d
			total += d
		}
		for _, st := range reports[i].Schemes {
			name := st.Policy
			if in, ok := inner[i][name]; ok {
				name = in
			}
			twin, ok := ref.reports[i].Scheme(name)
			if !ok || !sameModelRow(st, twin) {
				b.fail("fidelity: %v: traced %s row differs from the untraced run", p.jobs[i].job, name)
			}
		}
	}
	for name, d := range polTotal {
		b.metrics["scenario.policy_wall_frac."+name] = d.Seconds() / total.Seconds()
	}
	for _, name := range tracedNames {
		var calls, acc int
		var dur time.Duration
		for i := range stats {
			for tn, st := range stats[i] {
				if inner[i][tn] == name {
					calls, acc, dur = calls+st.calls, acc+st.accepted, dur+st.dur
				}
			}
		}
		b.metrics["sched.decisions."+name] = float64(calls)
		if calls > 0 {
			b.metrics["sched.accept_ratio."+name] = float64(acc) / float64(calls)
		}
		if w := polTotal[name]; w > 0 {
			b.metrics["sched.decide_frac."+name] = dur.Seconds() / w.Seconds()
		}
	}
	if !p.sweep && p.jobs[0].job.Shards > 1 && ref.reports[0] != nil {
		p.sequentialTwin(tr, root, seeds[0], ref, b)
	}
	return b
}

// sequentialTwin runs the sharded job once on the sequential engine,
// requires its report to match the sharded one byte for byte, and
// records the speedup of the sharded untraced run over it.
func (p *scenarioPlan) sequentialTwin(tr *tracer, root int, seed uint64, ref *batch, b *batch) {
	ps := tr.begin(root, "sim", "probe sequential twin")
	t := time.Now()
	seq, err := scenario.RunShards(p.jobs[0].job.Spec, seed, 1)
	wall := time.Since(t)
	tr.end(ps)
	b.attempted++
	if err != nil {
		b.fail("sequential twin: %v", err)
		return
	}
	a, errA := scenario.ReportsJSON([]*scenario.Report{seq})
	s, errS := scenario.ReportsJSON([]*scenario.Report{ref.reports[0]})
	if errA != nil || errS != nil || !bytes.Equal(a, s) {
		b.fail("fidelity: sharded report differs from the sequential run of the same spec")
	}
	b.metrics["sim.shard_speedup"] = wall.Seconds() / ref.wall.Seconds()
}
