package scenario

import (
	"fmt"
	"strings"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/sim"
	"ampom/internal/simtime"
	"ampom/internal/texttable"
)

// SchemeStats summarises one policy's run of a scenario.
type SchemeStats struct {
	// Policy is the balancer policy's registry name.
	Policy string

	// Makespan is the instant the last process finished (or the horizon if
	// Unfinished > 0).
	Makespan simtime.Duration
	// MeanSlowdown averages (completion − arrival)/demand over processes.
	MeanSlowdown float64
	// SlowdownVsBase is MeanSlowdown relative to the no-migration baseline.
	SlowdownVsBase float64

	// Migrations counts completed balancer moves; FrozenTotal is the time
	// processes spent frozen or stalled on their working-set stream;
	// ExtraWork is the AMPoM remote-paging transfer charged after resumes.
	Migrations  int
	FrozenTotal simtime.Duration
	ExtraWork   simtime.Duration

	// HardFaults and PrefetchPages extrapolate the AMPoM prefetcher census
	// over every migrated working set; MigrationBytes totals freeze-time
	// payloads plus remote-paged working sets.
	HardFaults     int64
	PrefetchPages  int64
	MigrationBytes int64

	// Unfinished counts processes still running (or unarrived) at the
	// horizon.
	Unfinished int

	// The failure plane's SLO metrics, populated only on specs with
	// failure churn (HasFailures): sojourn latency (arrival → completion)
	// percentiles over completed processes by the nearest-rank method, and
	// the crash/evacuation/fail-back event counters. Legacy reports keep
	// their exact shape — the render/JSON/CSV codecs surface these columns
	// only on failure specs.
	SojournP50 simtime.Duration
	SojournP95 simtime.Duration
	SojournP99 simtime.Duration
	// Crashes counts node-crash events applied; Evacuations counts
	// processes drained off dying nodes through real migrations; FailBacks
	// counts interrupted migrations that reverted to their sources (crash
	// of the destination, a dead path at freeze time, or a bounced
	// in-flight payload).
	Crashes     int
	Evacuations int
	FailBacks   int
	// FinalRTT is the monitoring plane's mean round-trip estimate at the
	// end of the run: spoke-daemon RTTs on the star, staleness-derived
	// dissemination round trips on gossip fabrics.
	FinalRTT simtime.Duration
	// Events is the engine's processed-event count.
	Events uint64
	// TierUse reports per-tier link counts, aggregate capacity and
	// carried payload bytes. Populated only on switched fabrics; legacy
	// star reports keep their pre-fabric shape.
	TierUse []fabric.TierStats

	// Sharding carries the conservative window scheduler's occupancy
	// counters when the run was sharded; nil on sequential runs. This is
	// execution telemetry, not model output — sharding is an execution
	// strategy and every shard count must render byte-identical reports —
	// so the render/JSON/CSV codecs (all explicit field lists) deliberately
	// omit it. Benchmarks read it through SchemeStats to report parallel
	// efficiency.
	Sharding *ShardStats
}

// ShardStats is the sharded execution telemetry of one policy run.
type ShardStats struct {
	// Shards is the effective shard count the run executed under.
	Shards int
	// Workers reports whether windows fanned across goroutine workers
	// (true) or ran inline on one thread (single-CPU hosts, identical
	// schedule either way).
	Workers bool
	// Group is the window scheduler's occupancy picture.
	Group sim.GroupStats
}

// Report is the cluster-level outcome of one scenario under every policy.
type Report struct {
	// Spec is the canonical scenario that ran.
	Spec Spec
	// Seed is the scenario seed all streams derived from.
	Seed uint64
	// Procs counts every process injected, churn bursts included.
	Procs int
	// Schemes holds per-policy statistics in the spec's canonical
	// (registry-sorted) policy order — variable-width, keyed by name.
	Schemes []SchemeStats
}

// Render formats the report as an aligned table with a descriptive header.
// The rendering is a pure function of the report, so equal-seed runs are
// byte-identical — the property the golden tests lock in.
func (r *Report) Render() string {
	var b strings.Builder
	s := r.Spec
	fmt.Fprintf(&b, "scenario %s: %d nodes, %d procs", s.Name, s.Nodes, r.Procs)
	if burst := r.Procs - s.Procs; burst > 0 {
		fmt.Fprintf(&b, " (%d in bursts)", burst)
	}
	fmt.Fprintf(&b, ", %s/%s arrivals, net %s, seed %d\n", s.Arrival, s.Placement, s.Network.Name, r.Seed)
	fmt.Fprintf(&b, "mix:")
	for _, m := range s.sortedMix() {
		fmt.Fprintf(&b, " %s:%d", m.Kind, m.Weight)
	}
	if len(s.Churn) > 0 {
		fmt.Fprintf(&b, "; churn:")
		for _, c := range s.Churn {
			fmt.Fprintf(&b, " %s@%.0fs", c.Kind, c.At.Seconds())
		}
	}
	b.WriteString("\n")

	header := []string{
		"policy", "makespan(s)", "slowdown", "xbase", "migrations",
		"frozen(s)", "faults", "prefetched", "MB moved", "unfinished",
	}
	// Failure specs carry the SLO percentile and failure-event columns;
	// legacy tables keep their exact shape.
	failures := s.HasFailures()
	if failures {
		header = append(header,
			"p50(s)", "p95(s)", "p99(s)", "crashes", "evacuated", "failbacks")
	}
	rows := make([][]string, 0, len(r.Schemes))
	for _, st := range r.Schemes {
		row := []string{
			st.Policy,
			fmt.Sprintf("%.1f", st.Makespan.Seconds()),
			fmt.Sprintf("%.2f", st.MeanSlowdown),
			fmt.Sprintf("%.2f", st.SlowdownVsBase),
			fmt.Sprint(st.Migrations),
			fmt.Sprintf("%.1f", st.FrozenTotal.Seconds()),
			fmt.Sprint(st.HardFaults),
			fmt.Sprint(st.PrefetchPages),
			fmt.Sprintf("%.1f", float64(st.MigrationBytes)/1e6),
			fmt.Sprint(st.Unfinished),
		}
		if failures {
			row = append(row,
				fmt.Sprintf("%.2f", st.SojournP50.Seconds()),
				fmt.Sprintf("%.2f", st.SojournP95.Seconds()),
				fmt.Sprintf("%.2f", st.SojournP99.Seconds()),
				fmt.Sprint(st.Crashes),
				fmt.Sprint(st.Evacuations),
				fmt.Sprint(st.FailBacks),
			)
		}
		rows = append(rows, row)
	}

	texttable.Write(&b, header, rows)
	// Per-tier link utilisation, a switched-fabric artefact (the legacy
	// star table is byte-stable without it).
	for _, st := range r.Schemes {
		if len(st.TierUse) == 0 {
			continue
		}
		fmt.Fprintf(&b, "tiers[%s]:", st.Policy)
		for _, tu := range st.TierUse {
			util := 0.0
			if cap := tu.CapacityBps * st.Makespan.Seconds(); cap > 0 {
				util = float64(tu.Bytes) / cap
			}
			fmt.Fprintf(&b, " %s %d links %.1f MB (%.1f%% util)",
				tu.Name, tu.Links, float64(tu.Bytes)/1e6, 100*util)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sojournPercentile is the nearest-rank percentile (the smallest value
// with at least q% of the sample at or below it) over an ascending slice
// of sojourn latencies; callers guarantee a non-empty slice.
func sojournPercentile(sorted []simtime.Duration, q int) simtime.Duration {
	idx := (len(sorted)*q+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Baseline returns the no-migration statistics (the first row if the
// baseline was somehow excluded).
func (r *Report) Baseline() SchemeStats {
	if st, ok := r.Scheme(sched.BaselineName); ok {
		return st
	}
	if len(r.Schemes) > 0 {
		return r.Schemes[0]
	}
	return SchemeStats{}
}

// Scheme returns the statistics of one policy by registry name, or false
// if the policy was not run.
func (r *Report) Scheme(name string) (SchemeStats, bool) {
	for _, st := range r.Schemes {
		if st.Policy == name {
			return st, true
		}
	}
	return SchemeStats{}, false
}
