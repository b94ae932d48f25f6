package scenario

import (
	"runtime"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/simtime"
)

// These tests pin the sharded engine's central contract: sharding is an
// execution strategy, not a model parameter. For every shard count the
// rendered, JSON and CSV reports must match the sequential run byte for
// byte — the same golden discipline the fabric refactor was held to.

// withShardWorkers raises GOMAXPROCS to 2 for the duration of fn, so
// shardWorkers picks the goroutine-per-shard window pool and `go test
// -race` exercises the real cross-goroutine handoff even on a single-CPU
// host. No test in the package runs in parallel, so the process-wide
// setting cannot leak into another test.
func withShardWorkers(t *testing.T, fn func()) {
	t.Helper()
	was := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(was)
	fn()
}

// shardGoldenSpecs are the presets the byte-identity sweep runs: the
// two-tier fabric test spec (3 racks of 4), and a churny heterogeneous
// variant that drives migrations, bursts and balloons across rack
// boundaries.
func shardGoldenSpecs() []Spec {
	churny := Spec{
		Name:            "shard-churny",
		Nodes:           12,
		Procs:           48,
		Skew:            0.7,
		SlowFrac:        0.25,
		FastFrac:        0.25,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 64,
		Fabric:          FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4},
		Churn: []ChurnEvent{
			{At: 3 * simtime.Second, Kind: ChurnSlowNode, Node: 1, Factor: 0.5},
			{At: 4 * simtime.Second, Kind: ChurnNetLoad, Node: 5, Factor: 0.4},
			{At: 5 * simtime.Second, Kind: ChurnBurst, Node: 0, Procs: 8},
			{At: 6 * simtime.Second, Kind: ChurnBalloon, Node: 0, Factor: 1.5},
		},
	}.Canonical()
	return []Spec{fabricTestSpec(fabric.KindTwoTier), churny}
}

// renderAll is the full byte surface of a report.
func renderAll(t *testing.T, rep *Report) (string, string, string) {
	t.Helper()
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Render(), string(js), rep.CSV()
}

// TestShardedReportsByteIdentical sweeps shards ∈ {1, 2, racks} over the
// shard golden presets and requires every report surface to equal the
// sequential run's, with the worker pool forced on.
func TestShardedReportsByteIdentical(t *testing.T) {
	withShardWorkers(t, func() {
		for _, spec := range shardGoldenSpecs() {
			racks := (spec.Nodes + spec.Fabric.RackSize - 1) / spec.Fabric.RackSize
			seq, err := Run(spec, 7)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			wantR, wantJ, wantC := renderAll(t, seq)
			for _, shards := range []int{1, 2, racks} {
				rep, err := RunShards(spec, 7, shards)
				if err != nil {
					t.Fatalf("%s/shards=%d: %v", spec.Name, shards, err)
				}
				gotR, gotJ, gotC := renderAll(t, rep)
				if gotR != wantR {
					t.Errorf("%s/shards=%d: rendered report diverged from sequential:\n--- got ---\n%s--- want ---\n%s",
						spec.Name, shards, gotR, wantR)
				}
				if gotJ != wantJ {
					t.Errorf("%s/shards=%d: JSON report diverged from sequential", spec.Name, shards)
				}
				if gotC != wantC {
					t.Errorf("%s/shards=%d: CSV report diverged from sequential", spec.Name, shards)
				}
				// The telemetry rides outside the byte surface: genuinely
				// sharded runs must carry it, clamped-sequential runs not.
				for _, st := range rep.Schemes {
					if shards <= 1 {
						if st.Sharding != nil {
							t.Errorf("%s/shards=%d/%s: sequential run carries sharding telemetry", spec.Name, shards, st.Policy)
						}
						continue
					}
					if st.Sharding == nil {
						t.Errorf("%s/shards=%d/%s: sharded run lost its telemetry", spec.Name, shards, st.Policy)
						continue
					}
					if st.Sharding.Shards != shards || !st.Sharding.Workers || st.Sharding.Group.Windows == 0 {
						t.Errorf("%s/shards=%d/%s: telemetry %+v inconsistent with a forced-worker sharded run",
							spec.Name, shards, st.Policy, *st.Sharding)
					}
				}
			}
		}
	})
}

// TestShardedLegacyStarUnchanged locks that requesting shards on a star
// scenario clamps to the sequential engine and keeps reproducing the
// legacy goldens byte for byte.
func TestShardedLegacyStarUnchanged(t *testing.T) {
	for name, c := range legacyGoldenCases(t) {
		rep, err := RunShards(c.spec, c.seed, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := rep.Render(), readGolden(t, "legacy_star_"+name+".render.golden"); got != want {
			t.Errorf("%s: sharded star run diverged from the legacy golden", name)
		}
	}
}

// TestShardPlanClamps locks the plan resolution: non-two-tier topologies
// and degenerate counts run sequentially, rack bands are contiguous, and
// no rack straddles shards.
func TestShardPlanClamps(t *testing.T) {
	twoTier := fabricTestSpec(fabric.KindTwoTier) // 12 nodes, 3 racks of 4
	if n, _ := shardPlan(twoTier, 1); n != 1 {
		t.Fatalf("shards=1 resolved to %d", n)
	}
	if n, _ := shardPlan(fabricTestSpec(fabric.KindFlat), 4); n != 1 {
		t.Fatalf("flat fabric resolved to %d shards, want sequential", n)
	}
	if n, _ := shardPlan(fabricTestSpec(fabric.KindStar), 4); n != 1 {
		t.Fatalf("star fabric resolved to %d shards, want sequential", n)
	}
	n, shardOf := shardPlan(twoTier, 8)
	if n != 3 {
		t.Fatalf("shards=8 over 3 racks resolved to %d, want 3", n)
	}
	for i, s := range shardOf {
		if want := i / twoTier.Fabric.RackSize; s != want {
			t.Fatalf("node %d on shard %d, want %d", i, s, want)
		}
	}
	n, shardOf = shardPlan(twoTier, 2)
	if n != 2 {
		t.Fatalf("shards=2 resolved to %d", n)
	}
	for i, s := range shardOf {
		rack := i / twoTier.Fabric.RackSize
		if want := rack * 2 / 3; s != want {
			t.Fatalf("node %d (rack %d) on shard %d, want %d", i, rack, s, want)
		}
		if first := shardOf[rack*twoTier.Fabric.RackSize]; s != first {
			t.Fatalf("rack %d straddles shards %d and %d", rack, first, s)
		}
	}
}
