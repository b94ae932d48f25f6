package main

import (
	"fmt"
	"time"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/eventq"
	"ampom/internal/fabric"
	"ampom/internal/infod"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/scenario"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// shape sizes the layer probes after a workload: its interconnect, its
// population and the reference mixes its migrants replay.
type shape struct {
	fabric      fabric.Config
	nodes       int
	procs       int
	mixes       []scenario.MixKind
	footprintMB int64
	seed        uint64
}

// runProbes times the layers a workload's jobs reach only indirectly, each
// under its own span beside the jobs, and returns their per-layer metrics.
func runProbes(s shape, tr *tracer, root int) map[string]float64 {
	out := make(map[string]float64)
	ps := tr.begin(root, "eventq", "probe push+pop")
	out["eventq.pushpop_ns"] = probeEventq(s.nodes+s.procs, s.seed)
	tr.end(ps)

	ps = tr.begin(root, "fabric", "probe monitoring plane")
	est := probeFabric(s, out)
	tr.end(ps)

	ps = tr.begin(root, "core", "probe dependent-zone analysis")
	out["core.analyze_ns"] = probeCore(s, est)
	tr.end(ps)
	return out
}

// probeEventq measures one pop of the earliest event plus one push of its
// successor, at a steady queue depth, in ns per pair — the median of five
// timed batches.
func probeEventq(depth int, seed uint64) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := prng.New(seed ^ 0xe7e7)
	nop := func() {}
	var q eventq.Queue
	for i := 0; i < depth; i++ {
		q.Push(simtime.Time(rng.Uint64n(1e12)), 0, nop)
	}
	const ops = 1 << 17
	var samples []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < ops; i++ {
			e := q.Pop()
			q.Push(e.At+simtime.Time(1+rng.Uint64n(1e9)), e.At, nop)
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/ops)
	}
	return median(samples)
}

// sendMark is the probe payload the destination node consumes.
type sendMark struct{}

// probeFabric builds the workload's interconnect with fabric.Build on an
// otherwise empty cluster — constant load probes, no processes — and runs
// its monitoring plane (gossip on switched fabrics, paired daemons on the
// star) for a fixed simulated span. It then times cross-fabric sends from
// node 0 to the last node, each drained to delivery with the plane live,
// and returns the path's estimates for the core probe.
func probeFabric(s shape, out map[string]float64) core.Estimates {
	eng := sim.New()
	nodes := make([]*cluster.Node, s.nodes)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, fmt.Sprintf("n%03d", i), 1)
	}
	ic := fabric.Build(eng, nodes, s.fabric)
	switched := false
	for i := range nodes {
		if g := ic.Gossip(i); g != nil {
			switched = true
			g.SetProbe(func() infod.LoadSample { return infod.LoadSample{Load: 1, Queue: 1, UsedMemMB: s.footprintMB} })
		}
	}
	span := 10 * simtime.Second
	if switched {
		period := s.fabric.GossipPeriod
		if period <= 0 {
			period = fabric.DefaultGossipPeriod
		}
		span = 5 * period
	}
	t := time.Now()
	eng.Run(simtime.Time(span))
	wall := time.Since(t)
	out["fabric.gossip_wall_per_sim_s"] = wall.Seconds() / span.Seconds()
	out["fabric.gossip_events_per_sim_s"] = float64(eng.Processed) / span.Seconds()
	out["infod.mean_rtt_ms"] = ic.MeanRTT().Seconds() * 1e3
	if switched {
		known := 0.0
		for i := range nodes {
			known += float64(ic.Gossip(i).KnownCount()) / float64(len(nodes)-1)
		}
		out["infod.known_frac"] = known / float64(len(nodes))
	} else {
		// Paired daemons report ground truth: every node is known.
		out["infod.known_frac"] = 1
	}

	src, dst := 0, len(nodes)-1
	delivered := false
	nodes[dst].Handle(func(p any) bool {
		if _, ok := p.(sendMark); !ok {
			return false
		}
		delivered = true
		eng.Stop()
		return true
	})
	var samples []float64
	for k := 0; k < 201; k++ {
		delivered = false
		t := time.Now()
		ic.Send(src, dst, netmodel.Message{Size: 16 << 10, Payload: sendMark{}})
		eng.Run(eng.Now().Add(10 * simtime.Second))
		d := time.Since(t)
		if delivered {
			samples = append(samples, float64(d.Nanoseconds())/1e3)
		}
	}
	out["fabric.send_us"] = median(samples)
	return ic.PathEstimates(src, dst)
}

// dryRunCap matches the scenario engine's per-migration census sample.
const dryRunCap = 384

// probeCore replays first touches of the workload's reference mixes over a
// migrant's working set through core.Prefetcher, the way the scenario
// engine's prefetch census does, and times each Analyze call. It repeats
// with fresh trace seeds for at least 100 ms and returns the mean ns per
// analysis.
func probeCore(s shape, est core.Estimates) float64 {
	pages := s.footprintMB * 1e6 / memory.PageSize
	var spent time.Duration
	n := 0
	rng := prng.New(s.seed ^ 0xc0de)
	for round := 0; spent < 100*time.Millisecond || round == 0; round++ {
		for _, mix := range s.mixes {
			ws := int64(float64(pages) * mix.WorkingSetFrac())
			if ws < 1 {
				ws = 1
			}
			pre := core.MustNew(core.DefaultConfig(), ws)
			src := mix.Trace(ws, rng.Uint64())()
			seen := make([]bool, ws)
			arrived := make([]bool, ws)
			var at simtime.Time
			for sampled := 0; sampled < dryRunCap; {
				ref, ok := src.Next()
				if !ok {
					break
				}
				if ref.Page < 0 || int64(ref.Page) >= ws || seen[ref.Page] {
					continue
				}
				seen[ref.Page] = true
				sampled++
				at = at.Add(est.PageTransfer)
				if arrived[ref.Page] {
					continue
				}
				at = at.Add(est.RTT)
				pre.RecordFault(ref.Page, at, 1)
				t := time.Now()
				a := pre.Analyze(est)
				spent += time.Since(t)
				n++
				k := 0
				for _, pg := range a.Zone {
					if pg >= 0 && int64(pg) < ws && !arrived[pg] {
						arrived[pg] = true
						k++
					}
				}
				pre.NotePrefetched(k)
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(spent.Nanoseconds()) / float64(n)
}
