// Incremental cluster-view maintenance. The scenario runner used to
// rebuild its ground-truth view from scratch before every balancing
// decision — an O(nodes+procs) scan, an O(n log n) re-sort of the load
// order, and an O(procs) filter per source node — which made view
// bookkeeping, not events, the budget of the large fabric presets. The
// liveView replaces those scans with aggregates maintained O(1) at each
// event: move applies every lifecycle transition (arrival, completion,
// freeze, restore, kill, fail-back, recovery), memDelta balloon churn and
// touch CPU churn:
//
//   - per-node resident counts, runnable counts and resident memory, the
//     exact sums the full rebuild produced (integer arithmetic, so the
//     incremental totals are bit-identical to a recompute);
//   - per-node runnable process lists in ascending id order, the exact
//     sequence candidatesOn used to extract by filtering the global slice;
//   - derived NodeView rows plus the descending-load source order, kept
//     sorted by a bounded repair: events mark their nodes dirty, and the
//     next balance round re-derives only the dirty rows and re-inserts
//     them into the order instead of re-sorting every node.
//
// The contract is observational equivalence: every row, every ordering and
// every aggregate a balance round reads is identical to what the full
// rebuild would have produced at the same instant (the property
// TestLiveViewMatchesRebuild locks). The payoff is that balance rounds and
// gossip probes cost O(dirty + decisions), not O(cluster), which is what
// lets the presets grow from 512 to 4096 nodes inside the same event
// budget.
package scenario

import (
	"sort"

	"ampom/internal/cluster"
	"ampom/internal/sched"
)

// liveView is the incrementally maintained ground-truth cluster state of
// one policy run.
type liveView struct {
	nodes []*cluster.Node // CPUScale is read live at row refresh
	capMB int64

	// Aggregates, maintained O(1) per event. live counts the processes
	// resident on a node (frozen migrants belong to their destination, as
	// in the full rebuild); runnable counts only the running ones; mem sums
	// resident footprints.
	live     []int
	runnable []int
	mem      []int64

	// runnableOn holds each node's runnable processes in ascending id
	// order — the iteration order candidatesOn's global filter preserved.
	runnableOn [][]*proc

	// liveOn holds each node's residents in ascending id order —
	// runnableOn plus the suspended processes and the frozen in-migrants,
	// which live on their destination like the live/mem aggregates. The
	// quantum ticks iterate runnableOn; liveOn serves the per-node scans
	// that must see the other residents too (balloon churn, crash,
	// recovery), so neither ever walks the global process slice.
	liveOn [][]*proc

	// rows are the derived NodeView rows; order is the node index sequence
	// sorted by descending Load, ascending index on ties — the order the
	// balancer offers source nodes in. Both are repaired lazily from the
	// dirty set.
	rows  []sched.NodeView
	order []int

	// The dirty set is split per shard so that concurrent shard phases of a
	// sharded run never share an append target: touch(i) records i on the
	// list of the shard owning node i, and only that shard's worker (or the
	// barrier-separated global phase) ever touches node i. refresh drains
	// the lists in shard order; the result is order-independent because row
	// derivation is per node and the load order is a strict total order.
	// Sequential runs have one shard, i.e. exactly one list.
	dirty   []bool
	dirtyBy [][]int
	shardOf []int // nil: every node on shard 0
}

// newLiveView builds the zero-process state: every row at load zero, the
// source order the identity (what sorting an all-zero cluster yields).
// shardOf maps node → shard over shards shards for sharded runs; nil (with
// shards <= 1) keeps the whole dirty set on one list.
func newLiveView(nodes []*cluster.Node, capMB int64, shardOf []int, shards int) *liveView {
	n := len(nodes)
	if shards < 1 {
		shards = 1
	}
	lv := &liveView{
		nodes:      nodes,
		capMB:      capMB,
		live:       make([]int, n),
		runnable:   make([]int, n),
		mem:        make([]int64, n),
		runnableOn: make([][]*proc, n),
		liveOn:     make([][]*proc, n),
		rows:       make([]sched.NodeView, n),
		order:      make([]int, n),
		dirty:      make([]bool, n),
		dirtyBy:    make([][]int, shards),
		shardOf:    shardOf,
	}
	lv.dirtyBy[0] = make([]int, 0, n)
	for i := range lv.rows {
		lv.rows[i] = sched.NodeView{CPUScale: nodes[i].CPUScale, CapacityMB: capMB}
		lv.order[i] = i
	}
	return lv
}

// touch marks node i's row (and its position in the load order) stale.
// CPU-scale churn calls it directly; every other event reaches it through
// move or memDelta.
func (lv *liveView) touch(i int) {
	if !lv.dirty[i] {
		lv.dirty[i] = true
		s := 0
		if lv.shardOf != nil {
			s = lv.shardOf[i]
		}
		lv.dirtyBy[s] = append(lv.dirtyBy[s], i)
	}
}

// dirtyCount sums the queued dirty marks across shards.
func (lv *liveView) dirtyCount() int {
	n := 0
	for _, list := range lv.dirtyBy {
		n += len(list)
	}
	return n
}

// move applies p's transition out of state from on node was to its current
// state and node. Every delta follows from the two state predicates:
// resident states count in live/mem/liveOn, running ones in
// runnable/runnableOn. Transitions never loop, so running is always left
// or entered; a process that stays resident on the same node (unfreeze,
// kill, recovery) keeps its row clean, since load tracks the resident
// count alone.
func (lv *liveView) move(p *proc, from procState, was int) {
	to, node := p.state, p.node
	stay := node == was && from.resident() && to.resident()
	if from.running() {
		lv.runnable[was]--
		lv.runnableOn[was] = removeByID(lv.runnableOn[was], p)
	}
	if from.resident() && !stay {
		lv.live[was]--
		lv.mem[was] -= p.footprintMB
		lv.liveOn[was] = removeByID(lv.liveOn[was], p)
		lv.touch(was)
	}
	if to.resident() && !stay {
		lv.live[node]++
		lv.mem[node] += p.footprintMB
		lv.liveOn[node] = insertByID(lv.liveOn[node], p)
		lv.touch(node)
	}
	if to.running() {
		lv.runnable[node]++
		lv.runnableOn[node] = insertByID(lv.runnableOn[node], p)
	}
}

// memDelta applies a resident-footprint change (balloon churn) to p's
// current node — frozen or runnable, the footprint lives where the process
// is resident.
func (lv *liveView) memDelta(i int, delta int64) {
	lv.mem[i] += delta
	lv.touch(i)
}

// refresh re-derives the dirty rows from the aggregates and repairs their
// positions in the load order, leaving rows and order exactly as a full
// rebuild plus sort would. With an empty dirty set it is a no-op — the
// usual case between events.
func (lv *liveView) refresh() {
	if lv.dirtyCount() == 0 {
		return
	}
	for _, list := range lv.dirtyBy {
		for _, i := range list {
			scale := lv.nodes[i].CPUScale
			lv.rows[i] = sched.NodeView{
				Procs:      lv.live[i],
				CPUScale:   scale,
				Load:       float64(lv.live[i]) / scale,
				UsedMemMB:  lv.mem[i],
				CapacityMB: lv.capMB,
				QueueLen:   lv.live[i],
			}
		}
	}
	lv.repairOrder()
	for s, list := range lv.dirtyBy {
		for _, i := range list {
			lv.dirty[i] = false
		}
		lv.dirtyBy[s] = list[:0]
	}
}

// before is the source-order key: descending load, ascending node index on
// ties — a strict total order, so the sorted sequence is unique and equal
// to what the stable full sort produced.
func (lv *liveView) before(a, b int) bool {
	la, lb := lv.rows[a].Load, lv.rows[b].Load
	if la != lb {
		return la > lb
	}
	return a < b
}

// repairOrder removes the dirty nodes from the order and re-inserts each
// at its sorted position — O(dirty × n) worst case but O(n) in practice,
// against the O(n log n) comparison sort the full rebuild paid per round.
func (lv *liveView) repairOrder() {
	k := 0
	for _, n := range lv.order {
		if !lv.dirty[n] {
			lv.order[k] = n
			k++
		}
	}
	lv.order = lv.order[:k]
	for _, list := range lv.dirtyBy {
		for _, n := range list {
			at := sort.Search(len(lv.order), func(j int) bool { return lv.before(n, lv.order[j]) })
			lv.order = append(lv.order, 0)
			copy(lv.order[at+1:], lv.order[at:])
			lv.order[at] = n
		}
	}
}

// insertByID inserts p into a list kept in ascending id order.
func insertByID(list []*proc, p *proc) []*proc {
	at := sort.Search(len(list), func(j int) bool { return list[j].t.id > p.t.id })
	list = append(list, nil)
	copy(list[at+1:], list[at:])
	list[at] = p
	return list
}

// removeByID removes p from a list kept in ascending id order.
func removeByID(list []*proc, p *proc) []*proc {
	at := sort.Search(len(list), func(j int) bool { return list[j].t.id >= p.t.id })
	copy(list[at:], list[at+1:])
	list[len(list)-1] = nil
	return list[:len(list)-1]
}
