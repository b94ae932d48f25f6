package scenario

import (
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/simtime"
)

// These tests pin the failure plane's semantics (crash, evacuation,
// fail-back, recovery — no process is ever lost) and its central execution
// contract: failures are global events, so failure reports stay
// byte-identical at every shard count.

// failureTestSpec is a 4-node two-tier cluster with every process landing
// on node 0, run under the no-migration baseline only — so the only
// migrations are the failure plane's own (evacuations), and each mechanism
// is observable in isolation.
func failureTestSpec(churn []ChurnEvent, evacuate bool) Spec {
	return Spec{
		Name:        "failure-sem",
		Nodes:       4,
		Procs:       12,
		Skew:        1, // every arrival lands on node 0
		MeanCompute: 5 * simtime.Second,
		Policies:    []string{"no-migration"},
		Fabric:      FabricSpec{Topology: fabric.KindTwoTier, RackSize: 2},
		Evacuate:    evacuate,
		Churn:       churn,
	}.Canonical()
}

// mustScheme extracts one policy row.
func mustScheme(t *testing.T, rep *Report, policy string) SchemeStats {
	t.Helper()
	st, ok := rep.Scheme(policy)
	if !ok {
		t.Fatalf("report has no %s row", policy)
	}
	return st
}

// TestCrashKillsProgress locks the non-evacuating crash semantics: the
// crashed node's runnable residents lose their progress and park until
// recovery — the run takes longer than the crash-free one — but no process
// is lost, and the sojourn percentile columns are populated.
func TestCrashKillsProgress(t *testing.T) {
	base := MustRun(failureTestSpec(nil, false), 7)
	crashed := MustRun(failureTestSpec([]ChurnEvent{
		{At: 10 * simtime.Second, Kind: ChurnNodeCrash, Node: 0},
		{At: 14 * simtime.Second, Kind: ChurnNodeRecover, Node: 0},
	}, false), 7)

	bs := mustScheme(t, base, "no-migration")
	cs := mustScheme(t, crashed, "no-migration")
	if cs.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", cs.Crashes)
	}
	if cs.Unfinished != 0 {
		t.Fatalf("crash lost %d processes", cs.Unfinished)
	}
	if cs.Makespan <= bs.Makespan {
		t.Fatalf("crash did not cost progress: makespan %v <= crash-free %v", cs.Makespan, bs.Makespan)
	}
	if cs.SojournP50 <= 0 || cs.SojournP95 < cs.SojournP50 || cs.SojournP99 < cs.SojournP95 {
		t.Fatalf("sojourn percentiles malformed: p50 %v p95 %v p99 %v", cs.SojournP50, cs.SojournP95, cs.SojournP99)
	}
	if bs.SojournP50 != 0 || bs.Crashes != 0 {
		t.Fatalf("failure metrics leaked into the failure-free run: %+v", bs)
	}
}

// TestEvacuationPreservesProgress locks the evacuating crash: the dying
// node drains its runnable residents through real migrations (counted, and
// moving real bytes), even under the no-migration balancer — the failure
// plane sits below balancing policy — and the preserved progress beats the
// kill-in-place run.
func TestEvacuationPreservesProgress(t *testing.T) {
	churn := []ChurnEvent{
		{At: 10 * simtime.Second, Kind: ChurnNodeCrash, Node: 0},
		{At: 14 * simtime.Second, Kind: ChurnNodeRecover, Node: 0},
	}
	killed := MustRun(failureTestSpec(churn, false), 7)
	evac := MustRun(failureTestSpec(churn, true), 7)

	ks := mustScheme(t, killed, "no-migration")
	es := mustScheme(t, evac, "no-migration")
	if es.Evacuations == 0 {
		t.Fatal("evacuating crash recorded no evacuations")
	}
	if es.Migrations < es.Evacuations {
		t.Fatalf("evacuations (%d) are migrations, but Migrations = %d", es.Evacuations, es.Migrations)
	}
	if es.MigrationBytes == 0 {
		t.Fatal("evacuation moved no bytes")
	}
	if ks.Evacuations != 0 || ks.Migrations != 0 {
		t.Fatalf("kill-in-place run migrated: %+v", ks)
	}
	if es.Unfinished != 0 {
		t.Fatalf("evacuation lost %d processes", es.Unfinished)
	}
	if es.Makespan >= ks.Makespan {
		t.Fatalf("evacuation did not preserve progress: makespan %v >= killed %v", es.Makespan, ks.Makespan)
	}
}

// TestCrashMidRestoreFailsBack locks the fail-back protocol end to end:
// node 0 crashes and evacuates, and 30 ms later — inside the evacuees'
// 65 ms restore window — their destinations start crashing too, so some
// evacuee demonstrably fails back to its (dead) source, parks suspended,
// and still completes after recovery. No process is ever lost.
func TestCrashMidRestoreFailsBack(t *testing.T) {
	rep := MustRun(failureTestSpec([]ChurnEvent{
		{At: 10 * simtime.Second, Kind: ChurnNodeCrash, Node: 0},
		{At: 10*simtime.Second + 30*simtime.Millisecond, Kind: ChurnNodeCrash, Node: 1},
		{At: 14 * simtime.Second, Kind: ChurnNodeRecover, Node: 0},
		{At: 15 * simtime.Second, Kind: ChurnNodeRecover, Node: 1},
	}, true), 7)
	st := mustScheme(t, rep, "no-migration")
	if st.Crashes != 2 {
		t.Fatalf("Crashes = %d, want 2", st.Crashes)
	}
	if st.Evacuations == 0 {
		t.Fatal("no evacuations — the scenario shape regressed")
	}
	if st.FailBacks == 0 {
		t.Fatal("crashing an evacuation destination mid-restore produced no fail-backs")
	}
	if st.Unfinished != 0 {
		t.Fatalf("fail-back lost %d processes", st.Unfinished)
	}
}

// TestFailBackExactlyOnce locks the "a migrant restores or fails back
// exactly once" invariant: once a migrant has failed back and parked
// suspended on its crashed source, later down-transitions must not sweep
// it up again. The probe is the TestCrashMidRestoreFailsBack script plus a
// failure-irrelevant rack-1 uplink flap while the migrants are parked —
// FailBacks and FrozenTotal must be byte-for-byte what the flap-free run
// records (a re-bounced migrant would inflate both).
func TestFailBackExactlyOnce(t *testing.T) {
	script := []ChurnEvent{
		{At: 10 * simtime.Second, Kind: ChurnNodeCrash, Node: 0},
		{At: 10*simtime.Second + 30*simtime.Millisecond, Kind: ChurnNodeCrash, Node: 1},
		{At: 14 * simtime.Second, Kind: ChurnNodeRecover, Node: 0},
		{At: 15 * simtime.Second, Kind: ChurnNodeRecover, Node: 1},
	}
	flap := append(append([]ChurnEvent(nil), script...),
		ChurnEvent{At: 11 * simtime.Second, Kind: ChurnLinkDown, Node: -2},
		ChurnEvent{At: 12 * simtime.Second, Kind: ChurnLinkUp, Node: -2},
	)
	base := mustScheme(t, MustRun(failureTestSpec(script, true), 7), "no-migration")
	got := mustScheme(t, MustRun(failureTestSpec(flap, true), 7), "no-migration")
	if base.FailBacks == 0 {
		t.Fatal("baseline recorded no fail-backs — the scenario shape regressed")
	}
	if got.FailBacks != base.FailBacks {
		t.Errorf("unrelated link flap changed FailBacks: %d, want %d", got.FailBacks, base.FailBacks)
	}
	if got.FrozenTotal != base.FrozenTotal {
		t.Errorf("unrelated link flap changed FrozenTotal: %v, want %v", got.FrozenTotal, base.FrozenTotal)
	}
	if got.Unfinished != 0 {
		t.Fatalf("lost %d processes", got.Unfinished)
	}
}

// TestLinkDownBouncesInFlight locks route re-convergence: a rack uplink
// drops while stale gossip still steers cross-rack migrations through it,
// so the balancer's in-flight and freshly admitted migrants fail back to
// their sources instead of vanishing; when the uplink heals, migration
// resumes and the batch drains.
func TestLinkDownBouncesInFlight(t *testing.T) {
	spec := Spec{
		Name:        "failure-linkflap",
		Nodes:       8,
		Procs:       48,
		Skew:        1, // rack 0 starts with the whole batch
		MeanCompute: 8 * simtime.Second,
		Policies:    []string{"queue-gossip"},
		Fabric:      FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4},
		Churn: []ChurnEvent{
			// Down just after the first gossip round seeded cross-rack
			// entries; the balancer keeps deciding on the stale picture.
			{At: 2500 * simtime.Millisecond, Kind: ChurnLinkDown, Node: -2},
			{At: 20 * simtime.Second, Kind: ChurnLinkUp, Node: -2},
		},
	}.Canonical()
	rep := MustRun(spec, 7)
	st := mustScheme(t, rep, "queue-gossip")
	if st.FailBacks == 0 {
		t.Fatal("a flapping uplink under stale gossip produced no fail-backs")
	}
	if st.Unfinished != 0 {
		t.Fatalf("link failure lost %d processes", st.Unfinished)
	}
	if st.Crashes != 0 || st.Evacuations != 0 {
		t.Fatalf("link churn recorded node-crash metrics: %+v", st)
	}
}

// failureGoldenSpec is the rack-farm-failures preset shrunk to test scale
// (2 racks of 32) with the benchmark policy trio.
func failureGoldenSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := Preset("rack-farm-failures")
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes = 64
	spec.Procs = 256
	spec.Policies = []string{"no-migration", "AMPoM", "queue-gossip"}
	return spec.Canonical()
}

// TestShardedFailureReportsByteIdentical is the failure plane's shard
// golden: crashes, evacuations, link failures and fail-backs are global
// events, so the shrunk rack-farm-failures preset must render, JSON- and
// CSV-encode byte-identically at every shard count — with the worker pool
// forced on, so `go test -race` exercises the cross-goroutine handoff —
// and the failure counters must actually fire (the scenario demonstrates
// fail-back, not just tolerates it).
func TestShardedFailureReportsByteIdentical(t *testing.T) {
	withShardWorkers(t, func() {
		spec := failureGoldenSpec(t)
		seq, err := Run(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantJ, wantC := renderAll(t, seq)
		if !strings.Contains(wantR, "failbacks") {
			t.Fatalf("failure report lacks the failure columns:\n%s", wantR)
		}
		var failBacks int
		for _, st := range seq.Schemes {
			if st.Crashes != 2 {
				t.Errorf("%s: Crashes = %d, want 2", st.Policy, st.Crashes)
			}
			if st.Evacuations == 0 {
				t.Errorf("%s: no evacuations", st.Policy)
			}
			if st.Unfinished != 0 {
				t.Errorf("%s: lost %d processes", st.Policy, st.Unfinished)
			}
			failBacks += st.FailBacks
		}
		if failBacks == 0 {
			t.Error("no policy recorded a fail-back — the double-crash script regressed")
		}
		racks := (spec.Nodes + spec.Fabric.RackSize - 1) / spec.Fabric.RackSize
		for _, shards := range []int{2, racks} {
			rep, err := RunShards(spec, 7, shards)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			gotR, gotJ, gotC := renderAll(t, rep)
			if gotR != wantR {
				t.Errorf("shards=%d: rendered failure report diverged from sequential:\n--- got ---\n%s--- want ---\n%s",
					shards, gotR, wantR)
			}
			if gotJ != wantJ {
				t.Errorf("shards=%d: JSON failure report diverged from sequential", shards)
			}
			if gotC != wantC {
				t.Errorf("shards=%d: CSV failure report diverged from sequential", shards)
			}
		}
	})
}
