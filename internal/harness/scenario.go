package harness

import (
	"fmt"

	"ampom/internal/campaign"
	"ampom/internal/scenario"
)

// This file exposes cluster scenarios through the figure harness: the
// Matrix runs them on its campaign engine (same worker pool, cache and seed
// derivation as the figure matrix) and renders their reports as Tables, so
// ampom-cluster output sits beside the paper artefacts.

// RunScenario executes one scenario through the campaign engine, memoised
// and seeded from the matrix seed.
func (m *Matrix) RunScenario(spec scenario.Spec) (*scenario.Report, error) {
	return m.eng.RunScenario(campaign.ScenarioJob{Spec: spec})
}

// RunScenarios fans a scenario batch across the worker pool, aggregating
// failures; healthy slots still return reports.
func (m *Matrix) RunScenarios(specs []scenario.Spec) ([]*scenario.Report, error) {
	jobs := make([]campaign.ScenarioJob, len(specs))
	for i, s := range specs {
		jobs[i] = campaign.ScenarioJob{Spec: s}
	}
	return m.eng.RunScenarios(jobs)
}

// ScenarioTable renders one scenario's report as a harness Table.
func (m *Matrix) ScenarioTable(spec scenario.Spec) (*Table, error) {
	rep, err := m.RunScenario(spec)
	if err != nil {
		return nil, err
	}
	return scenarioTable(rep), nil
}

// scenarioTable converts a report into the harness table shape.
func scenarioTable(r *scenario.Report) *Table {
	t := &Table{
		Title: fmt.Sprintf("Scenario %s: %d nodes, %d processes", r.Spec.Name, r.Spec.Nodes, r.Procs),
		Caption: fmt.Sprintf("Cluster-scale balancing under the §7 cost models (%s/%s arrivals on %s, seed %d).",
			r.Spec.Arrival, r.Spec.Placement, r.Spec.Network.Name, r.Seed),
		Header: []string{"policy", "makespan (s)", "slowdown", "xbase", "migrations", "frozen (s)", "faults", "prefetched", "MB moved"},
	}
	for _, st := range r.Schemes {
		t.Rows = append(t.Rows, []string{
			st.Policy,
			fmtSec(st.Makespan.Seconds()),
			fmt.Sprintf("%.2f", st.MeanSlowdown),
			fmt.Sprintf("%.2f", st.SlowdownVsBase),
			fmt.Sprint(st.Migrations),
			fmtSec(st.FrozenTotal.Seconds()),
			fmt.Sprint(st.HardFaults),
			fmt.Sprint(st.PrefetchPages),
			fmt.Sprintf("%.1f", float64(st.MigrationBytes)/1e6),
		})
	}
	return t
}
