package sched

import (
	"math"
	"sort"
	"testing"

	"ampom/internal/prng"
	"ampom/internal/simtime"
)

func TestRegistrySortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry names not sorted: %v", names)
	}
	for _, want := range []string{NameNoMigration, NameOpenMosix, NameAMPoM, NameLoadVector, NameMemUsher, NameQueueGossip} {
		p, ok := Lookup(want)
		if !ok {
			t.Fatalf("built-in policy %q not registered", want)
		}
		if p.Name() != want {
			t.Fatalf("policy registered under %q names itself %q", want, p.Name())
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	if err := Register(AMPoMPolicy); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register(badName{}); err == nil {
		t.Fatal("empty-name registration accepted")
	}
}

type badName struct{ noMigration }

func (badName) Name() string { return "" }

func TestByNames(t *testing.T) {
	pols, err := ByNames([]string{NameAMPoM, NameNoMigration})
	if err != nil {
		t.Fatal(err)
	}
	if pols[0].Name() != NameAMPoM || pols[1].Name() != NameNoMigration {
		t.Fatal("ByNames lost input order")
	}
	if _, err := ByNames([]string{"bogus"}); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}

// view builds a small test cluster view over a RowSlice.
func view(loads []int) View {
	rows := make(RowSlice, len(loads))
	for i, n := range loads {
		rows[i] = NodeView{Procs: n, CPUScale: 1, Load: float64(n), QueueLen: n, CapacityMB: 1024}
	}
	return View{Rows: rows, BandwidthBps: 11.36e6, CostThreshold: 1.25}
}

// rowsOf returns the RowSlice behind a view built by view, for tests that
// edit rows in place.
func rowsOf(v View) RowSlice { return v.Rows.(RowSlice) }

func TestCostModelsOrdered(t *testing.T) {
	omF, omE := OpenMosixPolicy.Mechanism().Estimate(192, 0.5, 11.36e6)
	amF, amE := AMPoMPolicy.Mechanism().Estimate(192, 0.5, 11.36e6)
	if amF >= omF/5 {
		t.Fatalf("lightweight freeze %v not ≪ full-copy %v", amF, omF)
	}
	if omE != 0 {
		t.Fatal("full copy owes no post-resume work")
	}
	if amE <= 0 {
		t.Fatal("lightweight must charge remote paging")
	}
	if f, e := NoMigrationPolicy.Mechanism().Estimate(192, 0.5, 11.36e6); f != 0 || e != 0 {
		t.Fatal("no-migration charges a cost")
	}
}

func TestClassicPoliciesTargetLeastLoaded(t *testing.T) {
	v := view([]int{9, 1, 4, 0})
	p := ProcView{Node: 0, Remaining: 30 * simtime.Second, FootprintMB: 64, WorkingSetFrac: 0.5}
	dest, ok := AMPoMPolicy.ShouldMigrate(v, p)
	if !ok || dest != 3 {
		t.Fatalf("AMPoM chose (%d, %v), want node 3", dest, ok)
	}
	// A short job fails the cost-benefit rule under the expensive model.
	short := ProcView{Node: 0, Remaining: 10 * simtime.Millisecond, FootprintMB: 512, WorkingSetFrac: 0.5}
	if _, ok := OpenMosixPolicy.ShouldMigrate(v, short); ok {
		t.Fatal("openMosix migrated a job far cheaper to finish in place")
	}
	// No gap, no migration.
	if _, ok := AMPoMPolicy.ShouldMigrate(view([]int{2, 2, 2}), p); ok {
		t.Fatal("migrated on a balanced cluster")
	}
}

func TestLoadVectorSeesOnlyASample(t *testing.T) {
	// With a deterministic stream, the sampled vector decides; the policy
	// must stay inside the view's node range and beat the source's load.
	v := view([]int{12, 0, 0, 0, 0, 0, 0, 0})
	v.Rand = prng.New(3)
	p := ProcView{Node: 0, Remaining: 30 * simtime.Second, FootprintMB: 64, WorkingSetFrac: 0.5}
	migrated := 0
	for i := 0; i < 50; i++ {
		dest, ok := LoadVectorPolicy.ShouldMigrate(v, p)
		if !ok {
			continue
		}
		migrated++
		if dest <= 0 || dest >= v.Len() {
			t.Fatalf("destination %d out of range", dest)
		}
	}
	if migrated == 0 {
		t.Fatal("load-vector policy never migrated off a 12-proc node")
	}
	// Without a stream it degenerates to full knowledge.
	v.Rand = nil
	if dest, ok := LoadVectorPolicy.ShouldMigrate(v, p); !ok || dest != 1 {
		t.Fatalf("nil-stream fallback chose (%d, %v), want node 1", dest, ok)
	}
}

func TestQueueGossipTargetsShortQueues(t *testing.T) {
	// Full knowledge (nil stream): the shortest scaled queue wins.
	v := view([]int{12, 3, 0, 5})
	p := ProcView{Node: 0, Remaining: 30 * simtime.Second, FootprintMB: 64, WorkingSetFrac: 0.5}
	dest, ok := QueueGossipPolicy.ShouldMigrate(v, p)
	if !ok || dest != 2 {
		t.Fatalf("full-knowledge queue-gossip chose (%d, %v), want node 2", dest, ok)
	}
	// Sampled: stays in range and still evacuates the long queue.
	v.Rand = prng.New(5)
	migrated := 0
	for i := 0; i < 50; i++ {
		dest, ok := QueueGossipPolicy.ShouldMigrate(v, p)
		if !ok {
			continue
		}
		migrated++
		if dest <= 0 || dest >= v.Len() {
			t.Fatalf("destination %d out of range", dest)
		}
	}
	if migrated == 0 {
		t.Fatal("queue-gossip never migrated off a 12-proc node")
	}
	// No gap once the candidate joins the destination: hold.
	flat := view([]int{2, 1, 1, 1})
	if _, ok := QueueGossipPolicy.ShouldMigrate(flat, p); ok {
		t.Fatal("migrated with no post-join queue gap")
	}
}

func TestQueueGossipSkipsUnknownAndPrefersFresh(t *testing.T) {
	p := ProcView{Node: 0, Remaining: 30 * simtime.Second, FootprintMB: 64, WorkingSetFrac: 0.5}
	// Unknown rows are never targeted, even with the shortest queue.
	v := view([]int{12, 0, 4})
	rowsOf(v)[1].Unknown = true
	dest, ok := QueueGossipPolicy.ShouldMigrate(v, p)
	if !ok || dest != 2 {
		t.Fatalf("chose (%d, %v) with node 1 unknown, want node 2", dest, ok)
	}
	// Everything unknown: hold.
	all := view([]int{12, 0, 0})
	rowsOf(all)[1].Unknown = true
	rowsOf(all)[2].Unknown = true
	if _, ok := QueueGossipPolicy.ShouldMigrate(all, p); ok {
		t.Fatal("migrated with every peer unknown")
	}
	// Equal queues: the fresher entry wins.
	tie := view([]int{12, 1, 1})
	rowsOf(tie)[1].InfoAge = 8 * simtime.Second
	rowsOf(tie)[2].InfoAge = simtime.Second
	dest, ok = QueueGossipPolicy.ShouldMigrate(tie, p)
	if !ok || dest != 2 {
		t.Fatalf("chose (%d, %v) on an age tie-break, want the fresher node 2", dest, ok)
	}
}

func TestSampleLenOverridesBuiltins(t *testing.T) {
	// SampleLen >= n-1 forces full knowledge on both sampling policies:
	// with a stream that would otherwise sample, the answer matches the
	// nil-stream (full-knowledge) choice.
	v := view([]int{12, 0, 4, 4, 4, 4, 4, 4})
	p := ProcView{Node: 0, Remaining: 30 * simtime.Second, FootprintMB: 64, WorkingSetFrac: 0.5}
	for _, pol := range []BalancerPolicy{LoadVectorPolicy, QueueGossipPolicy} {
		want, wantOK := pol.ShouldMigrate(v, p)
		sampled := v
		sampled.Rand = prng.New(11)
		sampled.SampleLen = v.Len()
		got, gotOK := pol.ShouldMigrate(sampled, p)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: SampleLen=n gave (%d, %v), full knowledge gives (%d, %v)",
				pol.Name(), got, gotOK, want, wantOK)
		}
	}
	// SampleLen=1 with a stream draws exactly one candidate per decision —
	// decisions must stay in range and sometimes hold (partial knowledge).
	one := v
	one.Rand = prng.New(11)
	one.SampleLen = 1
	held := false
	for i := 0; i < 40; i++ {
		dest, ok := QueueGossipPolicy.ShouldMigrate(one, p)
		if !ok {
			held = true
			continue
		}
		if dest <= 0 || dest >= one.Len() {
			t.Fatalf("destination %d out of range", dest)
		}
	}
	if !held {
		t.Fatal("1-entry sample never held back — it is not sampling")
	}
}

func TestMemUsherMovesOnPressureOnly(t *testing.T) {
	v := view([]int{4, 4, 4})
	p := ProcView{Node: 0, Remaining: 10 * simtime.Second, FootprintMB: 128, WorkingSetFrac: 0.5}
	// No pressure: inert, whatever the CPU loads say.
	if _, ok := MemUsherPolicy.ShouldMigrate(v, p); ok {
		t.Fatal("ushered without memory pressure")
	}
	// Source past the high-water mark: usher to the freest node with room.
	rowsOf(v)[0].UsedMemMB = 1000
	rowsOf(v)[1].UsedMemMB = 500
	rowsOf(v)[2].UsedMemMB = 100
	dest, ok := MemUsherPolicy.ShouldMigrate(v, p)
	if !ok || dest != 2 {
		t.Fatalf("usher chose (%d, %v), want node 2", dest, ok)
	}
	// No destination under the low-water mark: hold.
	rowsOf(v)[1].UsedMemMB = 900
	rowsOf(v)[2].UsedMemMB = 900
	if _, ok := MemUsherPolicy.ShouldMigrate(v, p); ok {
		t.Fatal("ushered onto an already-pressured destination")
	}
}

// TestMemUsherSkipsUnknownRows locks the partial-view contract: gossip
// views hand the usher Unknown rows that still carry the cluster-wide
// capacity (so free = capacity, the most tempting destination on the
// board) but no usage sample. Ushering there could be exactly the paging
// disaster the policy exists to avoid, so Unknown rows must never win.
func TestMemUsherSkipsUnknownRows(t *testing.T) {
	v := view([]int{4, 4, 4})
	p := ProcView{Node: 0, Remaining: 10 * simtime.Second, FootprintMB: 128, WorkingSetFrac: 0.5}
	rowsOf(v)[0].UsedMemMB = 1000
	// Node 1: unknown, apparently empty. Node 2: known, partly full.
	rowsOf(v)[1] = NodeView{CPUScale: 1, Load: math.Inf(1), CapacityMB: 1024, Unknown: true}
	rowsOf(v)[2].UsedMemMB = 300
	dest, ok := MemUsherPolicy.ShouldMigrate(v, p)
	if !ok || dest != 2 {
		t.Fatalf("usher chose (%d, %v), want the known node 2 over the unknown 1", dest, ok)
	}
	// Every destination unknown: hold, whatever the pressure.
	rowsOf(v)[2] = NodeView{CPUScale: 1, Load: math.Inf(1), CapacityMB: 1024, Unknown: true}
	if _, ok := MemUsherPolicy.ShouldMigrate(v, p); ok {
		t.Fatal("ushered onto a node whose memory pressure is unknown")
	}
}

func TestFreezePayloadSizes(t *testing.T) {
	om := OpenMosixPolicy.Mechanism()
	if om != FullCopy {
		t.Fatal("openMosix must size its full-copy freeze payload")
	}
	if got := om.PayloadBytes(100); got < 100e6 {
		t.Fatalf("full-copy payload %d below the footprint", got)
	}
	// The lightweight payload is every mechanism's but full copy's: three
	// pages, the 6 B/page MPT and the PCB.
	light := int64(3*4096 + 24414*6 + 2048)
	for _, p := range []BalancerPolicy{AMPoMPolicy, NoMigrationPolicy} {
		if got := p.Mechanism().PayloadBytes(100); got != light {
			t.Fatalf("%s should use the default lightweight payload: %d bytes, want %d", p.Name(), got, light)
		}
	}
}

func TestViewHelpersDeterministic(t *testing.T) {
	v := view([]int{3, 5, 5, 1, 1})
	if v.LeastLoaded() != 3 {
		t.Fatalf("least loaded = %d, want 3 (lowest index on ties)", v.LeastLoaded())
	}
}

// countingRows serves a RowSlice's rows and counts every read. Its
// LeastLoaded answers from a precomputed index, as a driver that keeps
// its rows ordered does, rather than by scanning.
type countingRows struct {
	rows  RowSlice
	least int
	reads int
}

func (c *countingRows) Len() int { c.reads++; return len(c.rows) }

func (c *countingRows) Row(i int) NodeView { c.reads++; return c.rows[i] }

func (c *countingRows) LeastLoaded() int { c.reads++; return c.least }

// TestPoliciesReadOnlyThroughRows checks that every built-in policy
// decides the same on a RowSlice view and on the same rows served by a
// counting Rows, and draws exactly as many values from the decision
// stream on both: policies read rows only through the View, never by
// asserting a concrete Rows. Views are random, with Unknown rows, load
// ties, mixed CPU scales, memory pressure and entry ages, over full and
// sampled knowledge.
func TestPoliciesReadOnlyThroughRows(t *testing.T) {
	rng := prng.New(17)
	decisions, moved := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(14)
		rows := make(RowSlice, n)
		for i := range rows {
			procs := rng.Intn(6)
			scale := []float64{0.5, 1, 2}[rng.Intn(3)]
			rows[i] = NodeView{
				Procs:      procs,
				CPUScale:   scale,
				Load:       float64(procs) / scale,
				UsedMemMB:  int64(rng.Intn(1100)),
				CapacityMB: 1024,
				QueueLen:   procs,
				InfoAge:    simtime.Duration(rng.Intn(3)) * simtime.Second,
			}
			if i > 0 && rng.Intn(4) == 0 {
				rows[i] = NodeView{CPUScale: scale, Load: math.Inf(1), CapacityMB: 1024, Unknown: true}
			}
		}
		p := ProcView{
			Node:           rng.Intn(n),
			Remaining:      simtime.Duration(1+rng.Intn(60)) * simtime.Second,
			FootprintMB:    int64(16 + rng.Intn(256)),
			WorkingSetFrac: 0.5,
		}
		seed := rng.Uint64()
		sampleLen := []int{0, 1, n}[rng.Intn(3)]
		for _, name := range Names() {
			pol, _ := Lookup(name)
			for _, withRand := range []bool{false, true} {
				plain := View{Rows: rows, BandwidthBps: 11.36e6, CostThreshold: 1.25, SampleLen: sampleLen}
				counted := &countingRows{rows: rows, least: rows.LeastLoaded()}
				served := plain
				served.Rows = counted
				if withRand {
					plain.Rand, served.Rand = prng.New(seed), prng.New(seed)
				}
				wantDest, wantOK := pol.ShouldMigrate(plain, p)
				gotDest, gotOK := pol.ShouldMigrate(served, p)
				decisions++
				if gotDest != wantDest || gotOK != wantOK {
					t.Fatalf("trial %d %s: counting Rows decided (%d, %v), RowSlice (%d, %v)",
						trial, name, gotDest, gotOK, wantDest, wantOK)
				}
				if withRand && plain.Rand.Uint64() != served.Rand.Uint64() {
					t.Fatalf("trial %d %s: the two views drew different numbers of values", trial, name)
				}
				if name != NameNoMigration && counted.reads == 0 {
					t.Fatalf("trial %d %s: decided without reading a row", trial, name)
				}
				if wantOK {
					moved++
				}
			}
		}
	}
	if moved == 0 || moved == decisions {
		t.Fatalf("%d of %d decisions migrated: the views never exercise both outcomes", moved, decisions)
	}
}
