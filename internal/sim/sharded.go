// Conservative parallel discrete-event execution: a ShardGroup advances
// several shard engines plus one global (coordinator) engine through
// shared lookahead windows, the window-barrier variant of null-message
// PDES. Each shard owns a disjoint slice of the model and may run
// concurrently with its peers inside a window; everything cross-shard is
// staged through the group and injected at the next barrier in a
// deterministic order, so a sharded run reproduces the sequential
// schedule event for event.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"ampom/internal/simtime"
)

// GlobalShard addresses the coordinator engine in Stage calls.
const GlobalShard = -1

// stagedEvent is one cross-shard callback waiting for the next barrier.
type stagedEvent struct {
	at       simtime.Time
	stagedAt simtime.Time // staging shard's clock at the Stage call
	parentAt simtime.Time // PushedAt of the event whose callback staged this
	rank     uint64       // caller-supplied origination rank; breaks remaining ties
	src      int          // staging shard; part of the deterministic merge order
	dst      int          // destination shard, or GlobalShard
	fn       func()
}

// ShardGroup coordinates shard engines under conservative lookahead
// windows.
//
// The synchronisation protocol per window: let T be the earliest pending
// event across every engine, G the global engine's earliest event, and L
// the lookahead (the minimum cross-shard propagation latency — no shard
// can affect another sooner than L after acting). The window edge is
// E = min(T+L, G, horizon). Every shard runs its events with At <= E in
// parallel (shards cannot interact inside the window: anything they stage
// lands strictly after E, because staged arrivals pay L on top of a
// strictly positive serialisation delay). At the barrier the staged
// events are injected carrying their staging instants as PushedAt, so the
// destination queue orders them exactly where a sequential push at that
// instant would have landed. Global events are full synchronisation
// points (they may touch any shard's state), which is why E never passes
// G; when the edge carries global events the shards stop strictly short
// of it and the coincident instant executes single-threaded, interleaving
// global and shard events by scheduling time — reproducing the sequential
// engine's insertion-order tie-break.
type ShardGroup struct {
	// Global is the coordinator engine: events that read or write state
	// spanning shards (scheduler ticks, balancing, migrations) live here.
	Global *Engine
	// Shards are the per-partition engines, each owning a disjoint model
	// slice.
	Shards []*Engine

	lookahead simtime.Duration
	parallel  bool
	inMerge   bool // executing a coincident instant single-threaded

	// outbox[src] is written only by shard src's worker during a window;
	// the barrier drains every outbox single-threaded.
	outbox  [][]stagedEvent
	pending []stagedEvent

	// work[i] feeds window edges to shard i's persistent worker goroutine;
	// winWG is the per-window barrier. Workers start at the first parallel
	// Run and stop when it returns — one goroutine per shard per run, not
	// one per shard per window.
	work  []chan simtime.Time
	winWG sync.WaitGroup

	// Occupancy counters (see Stats). windows/globalSync/staged are
	// deterministic; shardBusy is wall-clock nanoseconds, written only by
	// shard i's worker inside a window and read only after the barrier.
	windows      uint64
	globalSync   uint64
	staged       uint64
	shardWindows []uint64
	shardBusy    []int64
}

// GroupStats is the occupancy picture of one sharded run — how the
// conservative window protocol actually spent its time. Windows counts
// lookahead windows advanced; GlobalSyncWindows the subset whose edge
// carried global events (the single-threaded coincident instants);
// StagedEvents the cross-shard events injected at barriers. Those three
// are deterministic. ShardWindows[i] counts windows in which shard i had
// work, ShardEvents[i] its processed events, and ShardBusy[i] the
// wall-clock time its worker spent executing window phases (measured only
// under goroutine workers; zero when windows run inline). Execution
// telemetry, never model output: nothing here may feed back into the
// simulation or its reports' byte surface.
type GroupStats struct {
	Windows           uint64
	GlobalSyncWindows uint64
	StagedEvents      uint64
	GlobalEvents      uint64
	ShardWindows      []uint64
	ShardEvents       []uint64
	ShardBusy         []time.Duration
}

// NewShardGroup assembles a group over the given engines. The lookahead
// must be positive — it is the correctness bound that lets shards run a
// window unsynchronised. parallel selects goroutine-per-shard execution
// inside windows; sequential execution of the same windows is
// byte-identical (the tests' lever for exercising both paths).
func NewShardGroup(global *Engine, shards []*Engine, lookahead simtime.Duration, parallel bool) *ShardGroup {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive shard lookahead %v", lookahead))
	}
	if global == nil || len(shards) == 0 {
		panic("sim: shard group needs a global engine and at least one shard")
	}
	return &ShardGroup{
		Global:       global,
		Shards:       shards,
		lookahead:    lookahead,
		parallel:     parallel,
		outbox:       make([][]stagedEvent, len(shards)),
		shardWindows: make([]uint64, len(shards)),
		shardBusy:    make([]int64, len(shards)),
	}
}

// Lookahead returns the group's conservative window bound.
func (g *ShardGroup) Lookahead() simtime.Duration { return g.lookahead }

// Stage schedules fn at instant at on shard dst (or the global engine,
// dst == GlobalShard) from within shard src's current window. The call is
// safe from src's worker goroutine; the event is injected at the next
// barrier with src's current clock as its scheduling instant, so it sorts
// against the destination's own events exactly as a sequential push at
// this moment would. Equal (at, scheduling instant) pairs resolve the
// way the sequential engine would have ordered the staging callbacks
// themselves — by the instant each callback was scheduled — then by
// rank, an origination order the caller threads through causal chains
// that march in lockstep (the fabric stamps it on each routed message), then
// by (src, staging order).
func (g *ShardGroup) Stage(src, dst int, at simtime.Time, rank uint64, fn func()) {
	sh := g.Shards[src]
	g.outbox[src] = append(g.outbox[src], stagedEvent{at: at, stagedAt: sh.Now(), parentAt: sh.curPushed, rank: rank, src: src, dst: dst, fn: fn})
}

// InMerge reports whether the group is executing a coincident instant
// single-threaded (the global-synchronisation phase of a window). Model
// code uses it to pick a shared origination-rank counter over per-shard
// ones: during the merge there is exactly one writer anywhere, outside it
// exactly one writer per shard. Reads from shard workers are safe — the
// flag only changes while no worker runs.
func (g *ShardGroup) InMerge() bool { return g.inMerge }

// flush injects every staged event into its destination engine in the
// deterministic merge order. Runs single-threaded at the barrier.
func (g *ShardGroup) flush() {
	n := 0
	for _, ob := range g.outbox {
		n += len(ob)
	}
	if n == 0 {
		return
	}
	g.staged += uint64(n)
	g.pending = g.pending[:0]
	for i, ob := range g.outbox {
		g.pending = append(g.pending, ob...)
		g.outbox[i] = g.outbox[i][:0]
	}
	// Stable on (at, stagedAt, parentAt, rank, src): entries of one shard
	// keep their staging order; cross-shard ties resolve by the staging
	// callbacks' own scheduling instants (the order one engine would have
	// run them in), then by origination rank, then by shard index. The
	// destination queue orders by (At, PushedAt) anyway, so this injection
	// order only breaks exact scheduling-instant ties — the documented
	// contract.
	slices.SortStableFunc(g.pending, compareStaged)
	for _, ev := range g.pending {
		if ev.dst == GlobalShard {
			g.Global.AtPushed(ev.at, ev.stagedAt, ev.fn)
		} else {
			g.Shards[ev.dst].AtPushed(ev.at, ev.stagedAt, ev.fn)
		}
	}
}

// compareStaged orders staged events by (at, stagedAt, parentAt, rank,
// src).
func compareStaged(a, b stagedEvent) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.stagedAt != b.stagedAt:
		return cmp.Compare(a.stagedAt, b.stagedAt)
	case a.parentAt != b.parentAt:
		return cmp.Compare(a.parentAt, b.parentAt)
	case a.rank != b.rank:
		return cmp.Compare(a.rank, b.rank)
	}
	return cmp.Compare(a.src, b.src)
}

// Run executes the group until every queue drains, the global engine's
// Stop is called, or the next window would open past the horizon. It
// returns the virtual time at which it stopped, mirroring Engine.Run.
func (g *ShardGroup) Run(horizon simtime.Time) simtime.Time {
	if g.parallel {
		g.startWorkers()
		defer g.stopWorkers()
	}
	for {
		g.flush()

		// T: the earliest pending event anywhere; G caps the window at the
		// next global synchronisation point.
		var t simtime.Time
		have := false
		for _, sh := range g.Shards {
			if at, ok := sh.NextAt(); ok && (!have || at < t) {
				t, have = at, true
			}
		}
		gAt, gOK := g.Global.NextAt()
		if gOK && (!have || gAt < t) {
			t, have = gAt, true
		}
		if !have {
			// Drained. The sequential engine's clock rests at the last
			// event it ran; the group equivalent is the furthest clock.
			end := g.Global.Now()
			for _, sh := range g.Shards {
				if n := sh.Now(); n > end {
					end = n
				}
			}
			return end
		}
		if t > horizon {
			g.Global.AdvanceTo(horizon)
			for _, sh := range g.Shards {
				sh.AdvanceTo(horizon)
			}
			return horizon
		}

		e := t + simtime.Time(g.lookahead)
		if gOK && gAt < e {
			e = gAt
		}
		if e > horizon {
			e = horizon
		}

		g.windows++
		if gOK && gAt <= e {
			// The edge carries global events (e == gAt). Shards run strictly
			// short of it in parallel, every clock advances onto it, and the
			// coincident instant executes single-threaded with global and
			// shard events interleaved by scheduling time — the order the
			// sequential engine's insertion sequence would have produced.
			g.globalSync++
			g.runShards(e - 1)
			for _, sh := range g.Shards {
				sh.AdvanceTo(e)
			}
			g.Global.AdvanceTo(e)
			g.runInstant(e)
			if g.Global.Interrupted() {
				// Mirror Engine.Run's Stop contract: report the stop event's
				// instant, not the window edge.
				return g.Global.Now()
			}
		} else {
			g.runShards(e)
			for _, sh := range g.Shards {
				sh.AdvanceTo(e)
			}
			g.Global.AdvanceTo(e)
		}
	}
}

// runInstant executes every event firing at exactly instant t, across the
// global engine and all shards, in ascending scheduling-time order — ties
// resolve shards-first, then by shard index. Events a callback schedules
// at t join the same interleave. Runs single-threaded: global events may
// touch any shard's state, and the coincident instant is exactly where
// that contact happens.
func (g *ShardGroup) runInstant(t simtime.Time) {
	g.Global.stopped = false
	g.inMerge = true
	defer func() { g.inMerge = false }()
	for {
		var best *Engine
		var bestPushed simtime.Time
		for _, sh := range g.Shards {
			if ev, ok := sh.queue.Peek(); ok && ev.At == t {
				if best == nil || ev.PushedAt < bestPushed {
					best, bestPushed = sh, ev.PushedAt
				}
			}
		}
		isGlobal := false
		if ev, ok := g.Global.queue.Peek(); ok && ev.At == t {
			if best == nil || ev.PushedAt < bestPushed {
				best, bestPushed, isGlobal = g.Global, ev.PushedAt, true
			}
		}
		if best == nil {
			return
		}
		best.step()
		if isGlobal && g.Global.stopped {
			return
		}
	}
}

// startWorkers launches one persistent goroutine per shard, fed window
// edges over its channel. Each worker times its phase with the wall clock
// (the busy figure Stats reports) and signals the window barrier when its
// shard's queue reaches the edge.
func (g *ShardGroup) startWorkers() {
	g.work = make([]chan simtime.Time, len(g.Shards))
	for i := range g.Shards {
		ch := make(chan simtime.Time, 1)
		g.work[i] = ch
		go func(i int, ch chan simtime.Time) {
			for e := range ch {
				t0 := time.Now()
				g.Shards[i].Run(e)
				g.shardBusy[i] += int64(time.Since(t0))
				g.winWG.Done()
			}
		}(i, ch)
	}
}

// stopWorkers retires the worker pool; every worker is idle between
// windows (the barrier guarantees it), so closing the channels suffices.
func (g *ShardGroup) stopWorkers() {
	for _, ch := range g.work {
		close(ch)
	}
	g.work = nil
}

// runShards executes one window's shard phase: every shard with work at or
// before the window edge runs, on its persistent worker when the group is
// parallel.
func (g *ShardGroup) runShards(e simtime.Time) {
	if !g.parallel {
		for i, sh := range g.Shards {
			if at, ok := sh.NextAt(); ok && at <= e {
				g.shardWindows[i]++
				sh.Run(e)
			}
		}
		return
	}
	for i, sh := range g.Shards {
		if at, ok := sh.NextAt(); ok && at <= e {
			g.shardWindows[i]++
			g.winWG.Add(1)
			g.work[i] <- e
		}
	}
	g.winWG.Wait()
}

// Stats snapshots the group's occupancy counters. Call it between Runs or
// after one returns — the window barrier is what orders the workers'
// busy-time writes before this read.
func (g *ShardGroup) Stats() GroupStats {
	s := GroupStats{
		Windows:           g.windows,
		GlobalSyncWindows: g.globalSync,
		StagedEvents:      g.staged,
		GlobalEvents:      g.Global.Processed,
		ShardWindows:      append([]uint64(nil), g.shardWindows...),
		ShardEvents:       make([]uint64, len(g.Shards)),
		ShardBusy:         make([]time.Duration, len(g.Shards)),
	}
	for i, sh := range g.Shards {
		s.ShardEvents[i] = sh.Processed
		s.ShardBusy[i] = time.Duration(g.shardBusy[i])
	}
	return s
}

// Processed sums executed events across the global engine and every
// shard — the figure a sequential run reports as Engine.Processed.
func (g *ShardGroup) Processed() uint64 {
	total := g.Global.Processed
	for _, sh := range g.Shards {
		total += sh.Processed
	}
	return total
}
