package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"ampom/internal/campaign"
	"ampom/internal/core"
	"ampom/internal/fabric"
	"ampom/internal/harness"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
	"ampom/internal/scenario"
)

// paperScale is the footprint divisor of the figure and ablation matrix;
// the three §5.2 anchors always run at paper scale (tiny runs shrink both).
const (
	paperScale     = 8
	paperTinyScale = 64
)

// anchor is one §5.2 freeze-time anchor: the 575 MB DGEMM migrated under
// one scheme, against the freeze time the paper measured.
type anchor struct {
	scheme migrate.Scheme
	ref    float64 // paper freeze time, seconds
	w      *hpcc.Workload
	seed   uint64
}

// paperPlan is the paper-migration workload: the campaign matrix of every
// figure and ablation cell plus the paper-scale anchors.
type paperPlan struct {
	env
	cfg     harness.Config
	jobs    []campaign.Job
	anchors []anchor
}

func setupPaper(e env) (plan, error) {
	scale, anchorScale := int64(paperScale), int64(1)
	if e.tiny {
		scale, anchorScale = paperTinyScale, paperTinyScale
	}
	cfg := harness.Config{Scale: scale, Seed: e.seed, Workers: e.workers}
	m := harness.NewMatrix(cfg)
	p := &paperPlan{env: e, cfg: cfg, jobs: m.CampaignJobs()}
	entry := hpcc.Scaled(hpcc.Largest(hpcc.DGEMM), anchorScale)
	for _, a := range []anchor{
		{scheme: migrate.AMPoM, ref: 0.6},
		{scheme: migrate.OpenMosix, ref: 53.9},
		{scheme: migrate.NoPrefetch, ref: 0.07},
	} {
		// The campaign's own seed derivation, so the anchors replay the
		// reference stream a campaign job of the same workload would.
		a.seed = m.Engine().SeedFor(campaign.Job{Kernel: hpcc.DGEMM, MemoryMB: entry.MemoryMB, Scheme: a.scheme})
		w, err := hpcc.Build(entry, a.seed)
		if err != nil {
			return nil, fmt.Errorf("building anchor %v: %w", a.scheme, err)
		}
		a.w = w
		p.anchors = append(p.anchors, a)
	}
	return p, nil
}

func (p *paperPlan) shardCount() int { return 1 }

// shape: the paper's testbed is one origin and one destination on a Fast
// Ethernet link, migrating one process of the anchor's footprint.
func (p *paperPlan) shape() shape {
	return shape{
		fabric:      fabric.Config{Kind: fabric.KindStar, Network: netmodel.FastEthernet(), Seed: p.seed},
		nodes:       2,
		procs:       1,
		mixes:       []scenario.MixKind{scenario.MixSequential, scenario.MixBlocked, scenario.MixRandom},
		footprintMB: p.anchors[0].w.Entry.MemoryMB,
		seed:        p.seed,
	}
}

// njobs is the batch size: anchors first (the longest jobs, so the closed
// loop does not end on a straggler), then the matrix.
func (p *paperPlan) njobs() int { return len(p.anchors) + len(p.jobs) }

func (p *paperPlan) anchorConfig(a anchor) migrate.RunConfig {
	return migrate.RunConfig{Workload: a.w, Scheme: a.scheme, Seed: a.seed}
}

func (p *paperPlan) run() *batch {
	eng := harness.NewMatrix(p.cfg).Engine()
	results := make([]*migrate.Result, p.njobs())
	errs := make([]error, p.njobs())
	l := closedLoop(p.njobs(), p.workers, func(i int) {
		if i < len(p.anchors) {
			results[i], errs[i] = migrate.Run(p.anchorConfig(p.anchors[i]))
			return
		}
		results[i], errs[i] = eng.Run(p.jobs[i-len(p.anchors)])
	})
	b := newBatch(l, p.njobs())
	b.results = results
	p.finish(b, errs)
	return b
}

func (p *paperPlan) runTraced(tr *tracer, root int, ref *batch) *batch {
	eng := harness.NewMatrix(p.cfg).Engine()
	n := p.njobs()
	results := make([]*migrate.Result, n)
	errs := make([]error, n)
	schemes := make([]migrate.Scheme, n)
	build := make([]time.Duration, n)
	runs := make([]time.Duration, n)
	l := closedLoop(n, p.workers, func(i int) {
		if i < len(p.anchors) {
			a := p.anchors[i]
			js := tr.begin(root, "campaign", fmt.Sprintf("job anchor %v", a.scheme))
			schemes[i] = a.scheme
			t := time.Now()
			ms := tr.begin(js, "migrate", "run "+a.scheme.String())
			results[i], errs[i] = migrate.Run(p.anchorConfig(a))
			tr.end(ms)
			runs[i] = time.Since(t)
			tr.end(js)
			return
		}
		// The campaign engine's execute path, split so its two layers are
		// timed separately: the workload build, then the migration.
		j := p.jobs[i-len(p.anchors)]
		schemes[i] = j.Scheme
		js := tr.begin(root, "campaign", "job "+j.String())
		defer tr.end(js)
		seed := eng.SeedFor(j)
		t := time.Now()
		hs := tr.begin(js, "hpcc", "build")
		var w *hpcc.Workload
		if j.AllocMB > 0 {
			w, errs[i] = hpcc.BuildWorkingSet(j.AllocMB, j.MemoryMB, seed)
		} else {
			w, errs[i] = hpcc.Build(hpcc.Entry{Kernel: j.Kernel, ProblemSize: j.MemoryMB, MemoryMB: j.MemoryMB}, seed)
		}
		tr.end(hs)
		build[i] = time.Since(t)
		if errs[i] != nil {
			return
		}
		t = time.Now()
		ms := tr.begin(js, "migrate", "run "+j.Scheme.String())
		results[i], errs[i] = migrate.Run(migrate.RunConfig{Workload: w, Scheme: j.Scheme, Network: j.Network,
			AMPoM: j.AMPoM, Seed: seed, BackgroundLoad: j.BackgroundLoad})
		tr.end(ms)
		runs[i] = time.Since(t)
	})
	b := newBatch(l, n)
	b.results = results
	p.finish(b, errs)
	for i := range results {
		if results[i] != nil && ref.results[i] != nil && !reflect.DeepEqual(*results[i], *ref.results[i]) {
			b.fail("fidelity: traced job %d result differs from the untraced run", i)
		}
	}
	busy := b.busy.Seconds()
	var hpccTotal time.Duration
	for i := range build {
		hpccTotal += build[i]
	}
	for _, s := range migrate.Schemes() {
		var d time.Duration
		for i := range runs {
			if schemes[i] == s {
				d += runs[i]
			}
		}
		b.metrics["migrate.run_frac."+s.String()] = d.Seconds() / busy
	}
	b.metrics["hpcc.build_frac"] = hpccTotal.Seconds() / busy
	return b
}

// finish checks a batch's results and derives its model metrics.
func (p *paperPlan) finish(b *batch, errs []error) {
	h := sha256.New()
	byFP := make(map[string]*migrate.Result)
	for i, r := range b.results {
		b.attempted++
		if errs[i] != nil {
			b.fail("job %d: %v", i, errs[i])
			continue
		}
		if r == nil || r.Total <= 0 || r.Events == 0 {
			b.fail("job %d: degenerate result", i)
			continue
		}
		b.events += r.Events
		fmt.Fprintf(h, "%d %+v\n", i, *r)
		if i >= len(p.anchors) {
			byFP[p.jobs[i-len(p.anchors)].Fingerprint()] = r
		}
		if slices.Contains(migrate.Schemes(), r.Scheme) {
			b.metrics["migrate.events."+r.Scheme.String()] += float64(r.Events)
		}
	}
	b.digest = fmt.Sprintf("%x", h.Sum(nil))

	// The §5.2 anchors: worst relative freeze error, and the bytes that
	// crossed the link for them.
	worst := 0.0
	for i, a := range p.anchors {
		r := b.results[i]
		if r == nil {
			continue
		}
		worst = math.Max(worst, math.Abs(r.Freeze.Seconds()-a.ref)/a.ref)
		b.metrics["netmodel.bytes_to_dest_mb"] += float64(r.BytesToDest) / 1e6
	}
	b.metrics["migrate.anchor_freeze_err"] = worst

	// The Figure 5–8/11 grid on the testbed network: per cell, AMPoM's
	// fault prevention against NoPrefetch, its slowdown against the time
	// the process needs unmigrated (openMosix's init plus fully resident
	// execution), and the paging counters behind them.
	fe := netmodel.FastEthernet()
	var prevent, slow, overhead []float64
	for _, j := range p.jobs {
		if j.Scheme != migrate.AMPoM || j.AllocMB > 0 || j.Network.Name != fe.Name || j.AMPoM != (core.Config{}) {
			continue
		}
		cell := func(s migrate.Scheme) *migrate.Result {
			return byFP[campaign.Job{Kernel: j.Kernel, MemoryMB: j.MemoryMB, Scheme: s, Network: fe}.Fingerprint()]
		}
		am, om, np := cell(migrate.AMPoM), cell(migrate.OpenMosix), cell(migrate.NoPrefetch)
		if am == nil || om == nil || np == nil {
			continue
		}
		prevent = append(prevent, am.FaultPrevention(np.HardFaults))
		slow = append(slow, am.Total.Seconds()/(om.Init+om.Exec).Seconds())
		overhead = append(overhead, am.OverheadPct)
		b.metrics["paging.hard_faults"] += float64(am.HardFaults)
		b.metrics["paging.prefetch_pages"] += float64(am.PrefetchPages)
		b.metrics["paging.requests"] += float64(am.RequestsSent)
		b.metrics["paging.stall_s"] += am.StallTime.Seconds()
	}
	if len(prevent) == 0 {
		b.fail("no complete AMPoM/openMosix/NoPrefetch grid cell")
	}
	b.metrics["fault_prevention"] = mean(prevent)
	b.metrics["slowdown.AMPoM"] = mean(slow)
	b.metrics["core.overhead_pct"] = mean(overhead)
	if hf := b.metrics["paging.hard_faults"]; hf > 0 {
		b.metrics["paging.prefetch_per_request"] = b.metrics["paging.prefetch_pages"] / hf
	}
}
