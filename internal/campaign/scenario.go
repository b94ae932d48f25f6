package campaign

import (
	"context"

	"ampom/internal/scenario"
)

// This file makes cluster scenarios first-class campaign jobs: they are
// fingerprinted from the canonical Spec, executed through the same worker
// pool as migration experiments, memoised in a concurrency-safe
// single-flight cache, and seeded purely from (base seed, fingerprint) — so
// scenario batches inherit the engine's determinism guarantee: any worker
// count renders byte-identical reports.

// ScenarioJob identifies one cluster-scenario cell of a campaign.
type ScenarioJob struct {
	Spec scenario.Spec

	// Shards selects the event-engine shard count the run executes with.
	// It is an execution strategy, not a model parameter — every count
	// yields a byte-identical report — so it stays out of the fingerprint
	// (and therefore out of the cache key and seed).
	Shards int
}

// Fingerprint returns the job's canonical cache/seed key, namespaced apart
// from migration-experiment fingerprints.
func (j ScenarioJob) Fingerprint() string { return "scenario|" + j.Spec.Fingerprint() }

// String describes the job in progress reports and errors.
func (j ScenarioJob) String() string { return j.Spec.String() }

// SeedForScenario returns the PRNG seed a scenario job runs with — the same
// derivation rule migration jobs use, applied to the scenario fingerprint.
func (e *Engine) SeedForScenario(j ScenarioJob) uint64 {
	return DeriveSeed(e.opts.BaseSeed, j.Fingerprint())
}

// ScenarioProgress is one progress sample of an executing scenario job:
// the policy whose simulation just finished and how far through the job's
// policy set the run is. Samples reach Options.OnScenarioProgress.
type ScenarioProgress struct {
	// Job is the scenario being executed.
	Job ScenarioJob
	// Fingerprint is the job's cache/store key, so multiplexing consumers
	// (the daemon's event streams) can route samples without recomputing
	// it.
	Fingerprint string
	// Policy is the registry name of the policy that just finished; Done
	// of Total counts finished policy simulations.
	Policy      string
	Done, Total int
}

// RunScenario executes one scenario, memoised: concurrent calls with the
// same fingerprint run the simulation once and share the report. With a
// result store configured, a fingerprint whose report bytes are already
// on disk is decoded instead of simulated, and every newly computed
// report is persisted on success — failed runs never reach the store, and
// (like every flight error) never stay in the in-memory cache either, so
// retries re-execute.
func (e *Engine) RunScenario(job ScenarioJob) (*scenario.Report, error) {
	return memoRun(e, &e.scenarios, job, "scenario", func(fp string) (*scenario.Report, error) {
		if rep, ok := e.storeLookup(fp); ok {
			return rep, nil
		}
		var hook func(scenario.PolicyProgress)
		if cb := e.opts.OnScenarioProgress; cb != nil {
			hook = func(p scenario.PolicyProgress) {
				cb(ScenarioProgress{Job: job, Fingerprint: fp, Policy: p.Policy, Done: p.Done, Total: p.Total})
			}
		}
		rep, err := scenario.RunShardsHook(job.Spec, e.SeedForScenario(job), job.Shards, hook)
		if err != nil {
			return nil, err
		}
		e.storePersist(fp, rep)
		return rep, nil
	})
}

// storeLookup serves a job from the persistent result store, if one is
// configured and holds a decodable cell for the fingerprint. Corrupt or
// undecodable cells degrade to a miss — the caller recomputes, and the
// following storePersist heals the cell.
func (e *Engine) storeLookup(fp string) (*scenario.Report, bool) {
	st := e.opts.Store
	if st == nil {
		return nil, false
	}
	data, ok, _ := st.Get(fp)
	if !ok {
		return nil, false
	}
	reps, err := scenario.DecodeReports(data)
	if err != nil || len(reps) != 1 {
		return nil, false
	}
	return reps[0], true
}

// storePersist writes a freshly computed report to the result store. A
// store that cannot be written degrades the engine to compute-only — the
// report itself is still healthy, so persistence failures are deliberately
// not surfaced as job failures.
func (e *Engine) storePersist(fp string, rep *scenario.Report) {
	st := e.opts.Store
	if st == nil {
		return
	}
	data, err := rep.JSON()
	if err != nil {
		return
	}
	_ = st.Put(fp, data)
}

// RunScenariosCtx executes a batch of scenarios across the worker pool
// and returns one report per job, in input order. Failures are aggregated
// into a *RunError[ScenarioJob] (sorted by fingerprint for determinism);
// the corresponding report slots are nil and every other scenario still
// runs. Once ctx is done, no further scenario is dispatched — runs already
// in flight finish and return their reports, and every skipped job fails
// with ctx's error in the aggregate. This is the graceful-drain path the
// batch CLI wires its SIGINT/SIGTERM context into.
func (e *Engine) RunScenariosCtx(ctx context.Context, jobs []ScenarioJob) ([]*scenario.Report, error) {
	return batch(ctx, e, jobs, e.RunScenario, nil)
}
