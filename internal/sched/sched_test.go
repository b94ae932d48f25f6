// The policies' end-to-end claims, checked on the cluster simulation in
// internal/scenario. This is an external test package: scenario imports
// sched, so only sched_test may import scenario.
package sched_test

import (
	"testing"

	"ampom/internal/scenario"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// mustRun is scenario.Run panicking on error.
func mustRun(spec scenario.Spec, seed uint64) *scenario.Report {
	rep, err := scenario.Run(spec, seed)
	if err != nil {
		panic(err)
	}
	return rep
}

// section7 is the §7 study's shape on the default star fabric: a skewed
// batch burst, the case the cost-benefit rule exists for.
func section7() scenario.Spec {
	return scenario.Spec{
		Name:            "section7",
		Nodes:           8,
		Procs:           64,
		Arrival:         scenario.ArrivalBatch,
		Placement:       scenario.PlaceSkewed,
		Skew:            0.8,
		MeanCompute:     20 * simtime.Second,
		MeanFootprintMB: 192,
	}
}

var section7Seeds = []uint64{1, 5, 6, 42}

// quick is a small skewed burst for tests that need the machinery, not
// the scale.
func quick() scenario.Spec {
	return scenario.Spec{
		Name:            "quick",
		Nodes:           4,
		Procs:           16,
		Arrival:         scenario.ArrivalBatch,
		Placement:       scenario.PlaceSkewed,
		Skew:            0.8,
		MeanCompute:     8 * simtime.Second,
		MeanFootprintMB: 32,
	}
}

func rows(t *testing.T, rep *scenario.Report) (none, om, am scenario.SchemeStats) {
	t.Helper()
	var ok1, ok2 bool
	om, ok1 = rep.Scheme(sched.NameOpenMosix)
	am, ok2 = rep.Scheme(sched.NameAMPoM)
	if !ok1 || !ok2 {
		t.Fatal("report lacks the openMosix or AMPoM row")
	}
	return rep.Baseline(), om, am
}

func TestSimulationCompletes(t *testing.T) {
	rep := mustRun(quick(), 42)
	if len(rep.Schemes) != len(sched.Names()) {
		t.Fatalf("%d rows for %d registered policies", len(rep.Schemes), len(sched.Names()))
	}
	for _, st := range rep.Schemes {
		if st.Unfinished != 0 {
			t.Fatalf("%v: %d processes unfinished", st.Policy, st.Unfinished)
		}
		if st.Makespan <= 0 {
			t.Fatalf("%v: makespan %v", st.Policy, st.Makespan)
		}
		if st.MeanSlowdown < 1 {
			t.Fatalf("%v: slowdown %v < 1", st.Policy, st.MeanSlowdown)
		}
	}
}

// TestAMPoMEnablesAggressiveMigration is the paper's §7 claim: "new
// scheduling policies can make use of AMPoM on openMosix to perform more
// aggressive migrations since the performance penalty of suboptimal
// decisions has been dramatically decreased". Under the same cost-benefit
// rule AMPoM's cheap freeze clears more moves than openMosix's full copy,
// and the cluster balances better.
func TestAMPoMEnablesAggressiveMigration(t *testing.T) {
	for _, seed := range section7Seeds {
		none, om, am := rows(t, mustRun(section7(), seed))
		if am.Migrations <= om.Migrations {
			t.Errorf("seed %d: AMPoM migrations %d not above openMosix's %d (aggressiveness lost)",
				seed, am.Migrations, om.Migrations)
		}
		if am.MeanSlowdown >= om.MeanSlowdown || am.MeanSlowdown >= none.MeanSlowdown {
			t.Errorf("seed %d: AMPoM slowdown %.2f not below openMosix %.2f and no-migration %.2f",
				seed, am.MeanSlowdown, om.MeanSlowdown, none.MeanSlowdown)
		}
		if am.Makespan >= none.Makespan {
			t.Errorf("seed %d: AMPoM makespan %v not below no-migration %v", seed, am.Makespan, none.Makespan)
		}
	}
}

func TestFreezeTimeCharged(t *testing.T) {
	// The freeze proper excludes the working-set stream, which FrozenTotal
	// also accumulates.
	perMigration := func(st scenario.SchemeStats) float64 {
		return float64(st.FrozenTotal-st.ExtraWork) / float64(st.Migrations) / float64(simtime.Second)
	}
	for _, seed := range section7Seeds {
		_, om, am := rows(t, mustRun(section7(), seed))
		if om.Migrations == 0 || om.FrozenTotal <= 0 {
			t.Errorf("seed %d: openMosix charged %v freeze for %d migrations", seed, om.FrozenTotal, om.Migrations)
			continue
		}
		if am.ExtraWork <= 0 {
			t.Errorf("seed %d: AMPoM migrations charged no remote-paging work", seed)
		}
		if am.Migrations == 0 || perMigration(am) >= perMigration(om)/5 {
			t.Errorf("seed %d: AMPoM per-migration freeze %.3fs not ≪ openMosix %.3fs (%d migrations)",
				seed, perMigration(am), perMigration(om), am.Migrations)
		}
	}
}

func TestNoMigrationPolicyIsInert(t *testing.T) {
	none := mustRun(section7(), 42).Baseline()
	if none.Policy != sched.BaselineName {
		t.Fatalf("baseline row is %q", none.Policy)
	}
	if none.Migrations != 0 || none.MigrationBytes != 0 || none.FrozenTotal != 0 || none.ExtraWork != 0 {
		t.Fatalf("no-migration policy acted: %+v", none)
	}
}

func TestDeterministic(t *testing.T) {
	a := mustRun(quick(), 5).Render()
	if b := mustRun(quick(), 5).Render(); a != b {
		t.Fatalf("same seed diverged:\n%s\n---\n%s", a, b)
	}
	if c := mustRun(quick(), 6).Render(); a == c {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestBalancedClusterMigratesLittle(t *testing.T) {
	// A uniform start (Skew -1) leaves little to balance.
	uniform := section7()
	uniform.Skew = -1
	for _, seed := range section7Seeds {
		_, _, skewed := rows(t, mustRun(section7(), seed))
		_, _, flat := rows(t, mustRun(uniform, seed))
		if flat.Migrations >= skewed.Migrations {
			t.Errorf("seed %d: uniform start migrated %d, skewed %d", seed, flat.Migrations, skewed.Migrations)
		}
	}
}

func TestCompareDefaultsToRegistry(t *testing.T) {
	rep := mustRun(quick(), 42)
	names := sched.Names()
	if len(rep.Schemes) != len(names) {
		t.Fatalf("report has %d rows for %d registered policies", len(rep.Schemes), len(names))
	}
	for i, st := range rep.Schemes {
		if st.Policy != names[i] {
			t.Fatalf("row %d is %q, want registry order %q", i, st.Policy, names[i])
		}
	}
}
