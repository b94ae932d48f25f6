package scenario

import (
	"slices"
	"testing"

	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// refPrefetchCensus is a frozen copy of the original prefetch census: a
// fresh prefetcher and a fresh pair of byte-per-page flag slices per call.
// It is the reference prefetchCensus, which reuses one prefetcher and one
// pair of bit sets across calls, must match exactly. It also returns its
// prefetcher, so a test can compare the state each census leaves behind.
// Keep the census itself as it is; it pins the model, not the
// implementation.
func refPrefetchCensus(p *proc, est core.Estimates, wsPages int64) (hard, prefetched int64, pre *core.Prefetcher) {
	if wsPages < 1 {
		return 0, 0, nil
	}
	pre = core.MustNew(core.DefaultConfig(), wsPages)
	src := p.t.mix.Trace(wsPages, p.t.traceSeed)()
	seen, arrived := make([]bool, wsPages), make([]bool, wsPages)
	var sampled, sampleHard int64
	var t simtime.Time
	for sampled < dryRunCap {
		ref, ok := src.Next()
		if !ok {
			break
		}
		if ref.Page < 0 || int64(ref.Page) >= wsPages || seen[ref.Page] {
			continue
		}
		seen[ref.Page] = true
		sampled++
		t = t.Add(est.PageTransfer)
		if arrived[ref.Page] {
			continue
		}
		sampleHard++
		t = t.Add(est.RTT)
		pre.RecordFault(ref.Page, t, 1)
		a := pre.Analyze(est)
		n := 0
		for _, pg := range a.Zone {
			if pg >= 0 && int64(pg) < wsPages && !arrived[pg] {
				arrived[pg] = true
				n++
			}
		}
		pre.NotePrefetched(n)
	}
	if sampled == 0 {
		return 0, 0, pre
	}
	hard = int64(float64(sampleHard) / float64(sampled) * float64(wsPages))
	if hard < 1 {
		hard = 1
	}
	if hard > wsPages {
		hard = wsPages
	}
	return hard, wsPages - hard, pre
}

var allMixes = []MixKind{MixSequential, MixBlocked, MixRandom, MixSmallWS}

// TestPrefetchCensusMatchesReference runs every mix through one clusterSim
// at working sets that shrink from 150k pages to one and grow back, around
// the bit sets' word boundaries and the dry-run cap, under three estimate
// profiles. Every census must equal the reference's: a bit or a window
// entry left over from a larger census would change the counts. The
// prefetcher each census leaves must also match the reference's: the same
// fault and prefetch counts, and the same analysis of a stream probed into
// the working set's last two pages, whose pivot only the address-space
// bound keeps out.
func TestPrefetchCensusMatchesReference(t *testing.T) {
	sizes := []int64{150_000, 10_000, 385, 384, 383, 65, 64, 63, 1, 63, 64, 65, 383, 384, 385, 10_000, 150_000}
	ests := []core.Estimates{
		{RTT: 20 * simtime.Millisecond, PageTransfer: 400 * simtime.Microsecond},
		{RTT: 200 * simtime.Microsecond, PageTransfer: 4 * simtime.Millisecond},
		{RTT: 2 * simtime.Millisecond, PageTransfer: 40 * simtime.Microsecond},
	}
	c := &clusterSim{}
	var prefetched int64
	for i, ws := range sizes {
		for j, est := range ests {
			for k, mix := range allMixes {
				p := &proc{t: procTemplate{mix: mix, traceSeed: uint64(1 + 100*i + 10*j + k)}}
				hard, pref := c.prefetchCensus(p, est, ws)
				wantHard, wantPref, ref := refPrefetchCensus(p, est, ws)
				if hard != wantHard || pref != wantPref {
					t.Fatalf("%s, %d pages, RTT %v, td %v: census (%d hard, %d prefetched), reference (%d, %d)",
						mix, ws, est.RTT, est.PageTransfer, hard, pref, wantHard, wantPref)
				}
				prefetched += pref
				if pre := c.census; pre.Faults() != ref.Faults() || pre.Prefetched() != ref.Prefetched() {
					t.Fatalf("%s, %d pages: census prefetcher saw %d faults and %d prefetches, reference %d and %d",
						mix, ws, pre.Faults(), pre.Prefetched(), ref.Faults(), ref.Prefetched())
				}
				if ws < 2 {
					continue
				}
				var got, want core.Analysis
				for _, pg := range []memory.PageNum{memory.PageNum(ws - 2), memory.PageNum(ws - 1)} {
					at := simtime.Time(0).Add(1000 * simtime.Second)
					c.census.RecordFault(pg, at, 1)
					ref.RecordFault(pg, at, 1)
					got, want = c.census.Analyze(est), ref.Analyze(est)
				}
				if got.Score != want.Score || got.N != want.N || got.Streams != want.Streams ||
					!slices.Equal(got.Pivots, want.Pivots) || !slices.Equal(got.Zone, want.Zone) {
					t.Fatalf("%s, %d pages: probe analysis %+v, reference %+v", mix, ws, got, want)
				}
			}
		}
	}
	if prefetched == 0 {
		t.Fatal("no census prefetched a page")
	}
}

// TestCensusStateAllocFree: once warmed up, a census makes at most one
// allocation, at any working-set size and for every mix. A prefetcher built
// per census, flags sized to the working set, or a block order drawn into a
// fresh slice per census (the blocked mix's, wsPages/16 entries) would add
// allocations.
func TestCensusStateAllocFree(t *testing.T) {
	est := core.Estimates{RTT: 20 * simtime.Millisecond, PageTransfer: 400 * simtime.Microsecond}
	for _, mix := range allMixes {
		c := &clusterSim{}
		p := &proc{t: procTemplate{mix: mix, traceSeed: 7}}
		c.prefetchCensus(p, est, 150_000)
		for _, ws := range []int64{10_000, 150_000} {
			if census := testing.AllocsPerRun(20, func() { c.prefetchCensus(p, est, ws) }); census > 1 {
				t.Errorf("%s, %d pages: %v allocs per census, want at most 1", mix, ws, census)
			}
		}
	}
}

// TestCensusCoversBalloonedFootprint: the census bit sets are sized once
// per simulation, to its largest footprint, so a balloon that grows a
// process past that size after a census has run must make the next census
// size them again. The ballooned process's census must still equal the
// reference's.
func TestCensusCoversBalloonedFootprint(t *testing.T) {
	spec := Spec{Name: "balloon-census", Nodes: 2, Procs: 4, Skew: 1, MeanFootprintMB: 16}.Canonical()
	scales, tmpl := buildWorkload(spec, 3)
	c := buildClusterSim(spec, scales, tmpl, sched.AMPoMPolicy, 3, 1, nil)
	c.eng.Run(0) // the batch arrives
	est := core.Estimates{RTT: 2 * simtime.Millisecond, PageTransfer: 40 * simtime.Microsecond}
	p := c.procs[0]
	c.prefetchCensus(p, est, footprintPages(p.footprintMB))
	largest := c.maxFootprintMB
	c.balloon(ChurnEvent{Kind: ChurnBalloon, Node: p.node, Factor: 8})
	for _, q := range c.procs {
		if q.footprintMB > largest {
			ws := footprintPages(q.footprintMB)
			hard, pref := c.prefetchCensus(q, est, ws)
			if wantHard, wantPref, _ := refPrefetchCensus(q, est, ws); hard != wantHard || pref != wantPref {
				t.Fatalf("ballooned census (%d hard, %d prefetched), reference (%d, %d)", hard, pref, wantHard, wantPref)
			}
			return
		}
	}
	t.Fatal("the balloon grew no process")
}

// BenchmarkPrefetchCensus measures one migrant's prefetch census per mix,
// over the working set of a 256 MB process, on a warmed-up clusterSim.
func BenchmarkPrefetchCensus(b *testing.B) {
	est := core.Estimates{RTT: 20 * simtime.Millisecond, PageTransfer: 400 * simtime.Microsecond}
	for _, mix := range allMixes {
		b.Run(mix.String(), func(b *testing.B) {
			c := &clusterSim{}
			p := &proc{t: procTemplate{mix: mix, traceSeed: 7}}
			ws := int64(float64(footprintPages(256)) * mix.WorkingSetFrac())
			c.prefetchCensus(p, est, ws)
			b.ReportAllocs()
			for b.Loop() {
				c.prefetchCensus(p, est, ws)
			}
		})
	}
}
