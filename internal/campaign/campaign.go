// Package campaign is the parallel experiment engine behind the figure
// harness: it fans an embarrassingly-parallel matrix of migration
// experiments (kernel × memory size × scheme × network profile × prefetcher
// configuration) out across a bounded worker pool, memoises results in a
// concurrency-safe single-flight cache so cells shared between figures are
// computed once, and aggregates per-job failures instead of aborting the
// whole campaign at the first one.
//
// Determinism is the load-bearing property: every job's PRNG seed is derived
// from the campaign base seed and the job's canonical fingerprint alone —
// never from execution order, worker identity or wall-clock — so a campaign
// run with 16 workers produces byte-identical tables to a sequential run.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ampom/internal/core"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
	"ampom/internal/resultstore"
	"ampom/internal/scenario"
)

// Job identifies one cell of an experiment campaign. The zero values of
// Network and AMPoM mean the defaults (Fast Ethernet, the paper's §4
// configuration); they are normalised before fingerprinting so equivalent
// jobs share one cache cell.
type Job struct {
	// Kernel is the HPCC kernel to run.
	Kernel hpcc.Kernel
	// MemoryMB is the process footprint — or, when AllocMB is set, the
	// working set actually touched (§5.6).
	MemoryMB int64
	// AllocMB, when > 0, builds the §5.6 modified-DGEMM variant: AllocMB
	// allocated, MemoryMB worked on.
	AllocMB int64
	// Scheme is the migration mechanism.
	Scheme migrate.Scheme
	// Network is the link profile; zero value means Fast Ethernet.
	Network netmodel.Profile
	// AMPoM tunes the prefetcher (AMPoM scheme only); zero value means the
	// paper's defaults.
	AMPoM core.Config
	// BackgroundLoad is the fraction of link bandwidth consumed by
	// competing traffic.
	BackgroundLoad float64
}

// normalised maps every "use the default" zero value to the default it
// stands for, so that jobs which run identically fingerprint identically.
func (j Job) normalised() Job {
	if j.AllocMB > 0 {
		// The §5.6 working-set workload is the modified DGEMM regardless of
		// the requested kernel (hpcc.BuildWorkingSet models only that);
		// canonicalise so the label, fingerprint and seed all agree.
		j.Kernel = hpcc.DGEMM
	}
	if j.Network.BandwidthBps == 0 {
		j.Network = netmodel.FastEthernet()
	}
	if j.Scheme != migrate.AMPoM {
		// The prefetcher configuration is dead weight for every other
		// scheme; zero it so e.g. an openMosix baseline requested by an
		// ablation shares its cell with the one requested by Figure 5.
		j.AMPoM = core.Config{}
	} else {
		j.AMPoM = j.AMPoM.Canonical()
	}
	return j
}

// Fingerprint returns the job's canonical cache/seed key. Two jobs with the
// same fingerprint run the same experiment and share one cache cell.
func (j Job) Fingerprint() string {
	j = j.normalised()
	var b strings.Builder
	fmt.Fprintf(&b, "kernel=%s|mb=%d|alloc=%d|scheme=%s|net=%s/%d/%g|load=%g",
		j.Kernel, j.MemoryMB, j.AllocMB, j.Scheme,
		j.Network.Name, int64(j.Network.LatencyOneWay), j.Network.BandwidthBps,
		j.BackgroundLoad)
	if j.Scheme == migrate.AMPoM {
		fmt.Fprintf(&b, "|ampom=l%d,d%d,cap%d,bl%g",
			j.AMPoM.WindowLen, j.AMPoM.DMax, j.AMPoM.MaxPrefetch, j.AMPoM.BaselineScore)
	}
	return b.String()
}

// WorkloadFingerprint identifies just the workload the job runs on —
// kernel, footprint and working-set allocation. Per-job seeds are derived
// from this sub-key rather than the full fingerprint, so every scheme,
// network and prefetcher variant measured on one workload replays the
// identical reference stream: the cross-scheme comparisons the figures
// report hold the workload fixed, as the paper's testbed did.
func (j Job) WorkloadFingerprint() string {
	j = j.normalised()
	return fmt.Sprintf("kernel=%s|mb=%d|alloc=%d", j.Kernel, j.MemoryMB, j.AllocMB)
}

// String describes the job in progress reports and errors.
func (j Job) String() string {
	j = j.normalised()
	if j.AllocMB > 0 {
		return fmt.Sprintf("%v(%dMB/%dMB)/%v", j.Kernel, j.MemoryMB, j.AllocMB, j.Scheme)
	}
	return fmt.Sprintf("%v(%dMB)/%v", j.Kernel, j.MemoryMB, j.Scheme)
}

// DeriveSeed mixes the campaign base seed with a job fingerprint into the
// job's private PRNG seed. The derivation is a pure function of its two
// arguments (FNV-1a over the fingerprint, then a SplitMix64 finalisation),
// which is what makes parallel campaigns reproducible: a job draws the same
// random stream no matter which worker runs it or in what order.
func DeriveSeed(base uint64, fingerprint string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(fingerprint); i++ {
		h ^= uint64(fingerprint[i])
		h *= fnvPrime
	}
	z := h ^ (base + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Progress is one campaign progress sample, delivered after each job
// completes (including cache hits, which complete instantly).
type Progress struct {
	// Done counts finished jobs of the batch; Failed of those failed.
	Done, Failed int
	// Total is the batch size.
	Total int
	// Elapsed is wall-clock time since the batch started.
	Elapsed time.Duration
	// ETA extrapolates the remaining wall-clock time from the pace so far.
	ETA time.Duration
	// Job is the job that just finished.
	Job Job
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the worker pool: 0 means GOMAXPROCS, 1 runs batches
	// sequentially.
	Workers int
	// BaseSeed is the campaign seed every per-job seed is derived from.
	// Zero means 42.
	BaseSeed uint64
	// OnProgress, when set, is called after every job of a RunAll batch
	// completes. Calls are serialised; the callback must not block long.
	OnProgress func(Progress)
	// OnScenarioProgress, when set, receives a sample after each policy of
	// an executing scenario completes (cache and store hits produce no
	// samples — nothing runs). Calls arrive from the executing goroutine
	// and must not block long. This is the hook ampom-clusterd streams to
	// clients.
	OnScenarioProgress func(ScenarioProgress)
	// Store, when set, backs the in-memory scenario cache with a
	// persistent content-addressed result store: RunScenario serves a
	// fingerprint whose report bytes are already on disk without
	// simulating, and persists every newly computed report on success.
	// Failed runs are never persisted — a store cell is proof the
	// fingerprint once ran to completion.
	Store *resultstore.Store
}

// Engine executes campaign jobs through a worker pool and a single-flight
// result cache. It is safe for concurrent use.
type Engine struct {
	opts    Options
	workers int

	runs      flight[*migrate.Result]
	scenarios flight[*scenario.Report]

	statMu   sync.Mutex
	executed int
	requests int
}

// New returns an engine for the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if opts.BaseSeed == 0 {
		opts.BaseSeed = 42
	}
	return &Engine{
		opts:    opts,
		workers: w,
	}
}

// flight is a fingerprint-keyed single-flight cache: the first requester of
// a key computes, every later requester blocks on the cell and shares the
// outcome. Both the migration-experiment cache and the scenario cache are
// instances, so the concurrency discipline lives in one place.
type flight[T any] struct {
	mu    sync.Mutex
	cells map[string]*fcell[T]
}

// fcell is one single-flight slot.
type fcell[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// do returns the memoised outcome for key, running compute exactly once
// across concurrent callers. executed reports whether this call did the
// computing.
//
// Only success is cached. Callers concurrent with a failing compute share
// its error (they asked for the in-flight run and that run failed), but
// the cell is dropped before they are released, so any later request
// re-executes instead of replaying a stale failure — a transient fault
// (exhausted disk, an interrupted run) never poisons the fingerprint for
// the engine's lifetime. A panicking compute is handled the same way:
// waiters get wrapPanic(recovered) as their error, the cell is dropped,
// and the panic is re-raised in the computing goroutine.
func (f *flight[T]) do(key string, wrapPanic func(r any) error, compute func() (T, error)) (val T, err error, executed bool) {
	f.mu.Lock()
	if f.cells == nil {
		f.cells = make(map[string]*fcell[T])
	}
	c, ok := f.cells[key]
	if ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err, false
	}
	c = &fcell[T]{done: make(chan struct{})}
	f.cells[key] = c
	f.mu.Unlock()

	// Drop failed cells before releasing waiters, so a retry after the
	// error re-executes. The identity check guards against deleting a
	// successor cell some future requester installed (impossible today —
	// nothing replaces a cell before done is closed — but cheap).
	drop := func() {
		f.mu.Lock()
		if f.cells[key] == c {
			delete(f.cells, key)
		}
		f.mu.Unlock()
	}
	// Always release waiters, even if compute panics underneath us and a
	// caller up the stack recovers.
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			c.err = wrapPanic(r)
			drop()
			panic(r)
		}
	}()
	c.val, c.err = compute()
	if c.err != nil {
		drop()
	}
	return c.val, c.err, true
}

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.workers }

// Executed returns how many jobs the engine actually simulated (cache
// misses). Requests returns how many Run calls it served in total.
func (e *Engine) Executed() int {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.executed
}

// Requests returns the total number of Run calls served (hits + misses).
func (e *Engine) Requests() int {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.requests
}

// SeedFor returns the PRNG seed a job's workload is built and run with —
// the derivation the engine itself uses, exposed so out-of-band analyses
// (e.g. the Figure 4 locality measurement) can replay the exact stream the
// campaign simulates.
func (e *Engine) SeedFor(j Job) uint64 {
	return DeriveSeed(e.opts.BaseSeed, j.WorkloadFingerprint())
}

// Run executes one job, memoised: concurrent calls with the same
// fingerprint run the simulation once and share the result.
func (e *Engine) Run(job Job) (*migrate.Result, error) {
	return memoRun(e, &e.runs, job, "simulation", func(string) (*migrate.Result, error) {
		return e.execute(job.normalised())
	})
}

// execute simulates one job with its derived seed.
func (e *Engine) execute(j Job) (*migrate.Result, error) {
	seed := e.SeedFor(j)
	var (
		w   *hpcc.Workload
		err error
	)
	if j.AllocMB > 0 {
		w, err = hpcc.BuildWorkingSet(j.AllocMB, j.MemoryMB, seed)
	} else {
		w, err = hpcc.Build(hpcc.Entry{Kernel: j.Kernel, ProblemSize: j.MemoryMB, MemoryMB: j.MemoryMB}, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: building %v: %w", j, err)
	}
	r, err := migrate.Run(migrate.RunConfig{
		Workload:       w,
		Scheme:         j.Scheme,
		Network:        j.Network,
		AMPoM:          j.AMPoM,
		Seed:           seed,
		BackgroundLoad: j.BackgroundLoad,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: running %v: %w", j, err)
	}
	return r, nil
}

// jobKind is what the shared memoisation and batch machinery needs of a
// job: Job and ScenarioJob both satisfy it.
type jobKind interface{ Fingerprint() string }

// memoRun serves one job through f, memoised: concurrent calls with the
// same fingerprint compute once and share the outcome. It counts every
// request and, when this call computed, the execution. A panicking
// compute reaches the flight's waiters as an error naming the job and
// the phase that panicked.
func memoRun[J jobKind, T any](e *Engine, f *flight[T], job J, phase string, compute func(fp string) (T, error)) (T, error) {
	e.statMu.Lock()
	e.requests++
	e.statMu.Unlock()

	fp := job.Fingerprint()
	val, err, executed := f.do(fp,
		func(r any) error { return fmt.Errorf("campaign: %v: panic during %s: %v", job, phase, r) },
		func() (T, error) { return compute(fp) })
	if executed {
		e.statMu.Lock()
		e.executed++
		e.statMu.Unlock()
	}
	return val, err
}

// batch runs jobs through run across the engine's worker pool and returns
// one result per job, in input order. Every batch of either job kind goes
// through here, so they share one pool bound. Once ctx is done no further
// job is dispatched: jobs already running finish normally (a simulation
// is never torn mid-run) and every undispatched job fails with ctx's
// error. This is the graceful-drain primitive the SIGINT/SIGTERM handling
// of the batch CLIs and the daemon build on. done, when non-nil, is
// called after each dispatched job finishes, from the worker that ran it.
//
// Failures are aggregated into a *RunError[J] holding one failure per
// fingerprint, sorted by fingerprint for determinism; the failed jobs'
// result slots are zero and every other job still runs to completion.
func batch[J jobKind, T any](ctx context.Context, e *Engine, jobs []J, run func(J) (T, error), done func(i int, err error)) ([]T, error) {
	n := len(jobs)
	results := make([]T, n)
	errs := make([]error, n)
	workers := min(e.workers, n)
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = run(jobs[i])
				if done != nil {
					done(i, errs[i])
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		// select picks at random between a done context and a ready
		// worker, so the context is checked first: once it is done, no
		// further job is dispatched.
		if ctx.Err() == nil {
			select {
			case <-ctx.Done():
			case idx <- i:
				continue
			}
		}
		for j := i; j < n; j++ {
			errs[j] = fmt.Errorf("campaign: skipped: %w", ctx.Err())
		}
		break
	}
	close(idx)
	wg.Wait()

	var failures []JobError[J]
	seen := make(map[string]bool)
	for i, err := range errs {
		if err == nil {
			continue
		}
		fp := jobs[i].Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		failures = append(failures, JobError[J]{Job: jobs[i], Err: err})
	}
	if len(failures) == 0 {
		return results, nil
	}
	sort.Slice(failures, func(i, j int) bool {
		return failures[i].Job.Fingerprint() < failures[j].Job.Fingerprint()
	})
	return results, &RunError[J]{Total: n, Failures: failures}
}

// JobError ties a failed job of either kind to its error.
type JobError[J any] struct {
	Job J
	Err error
}

func (e JobError[J]) Error() string { return fmt.Sprintf("%v: %v", e.Job, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e JobError[J]) Unwrap() error { return e.Err }

// RunError aggregates every failure of a campaign batch. The batch's healthy
// jobs still complete and return results — a broken ablation cell no longer
// takes the whole figure regeneration down with it.
type RunError[J any] struct {
	// Total is the batch size the failures came from.
	Total    int
	Failures []JobError[J]
}

func (e *RunError[J]) Error() string {
	if len(e.Failures) == 0 {
		return "campaign: no failures"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d/%d job(s) failed", len(e.Failures), e.Total)
	for i, f := range e.Failures {
		if i == 4 && len(e.Failures) > 5 {
			fmt.Fprintf(&b, "; … %d more", len(e.Failures)-i)
			break
		}
		fmt.Fprintf(&b, "; %v", f)
	}
	return b.String()
}

// RunAll executes a batch of jobs across the worker pool and returns one
// result per job, in input order. Duplicate or already-cached jobs are
// served from the cache. Failures are aggregated into a *RunError[Job]
// (sorted by job fingerprint for determinism); the corresponding result
// slots are nil and every other job still runs to completion.
func (e *Engine) RunAll(jobs []Job) ([]*migrate.Result, error) {
	var report func(i int, err error)
	if e.opts.OnProgress != nil {
		start := time.Now()
		var (
			progMu sync.Mutex
			done   int
			failed int
		)
		report = func(i int, err error) {
			progMu.Lock()
			defer progMu.Unlock()
			done++
			if err != nil {
				failed++
			}
			elapsed := time.Since(start)
			var eta time.Duration
			if done < len(jobs) {
				eta = time.Duration(float64(elapsed) / float64(done) * float64(len(jobs)-done))
			}
			e.opts.OnProgress(Progress{
				Done: done, Failed: failed, Total: len(jobs),
				Elapsed: elapsed, ETA: eta, Job: jobs[i],
			})
		}
	}
	return batch(context.Background(), e, jobs, e.Run, report)
}

// Dedupe returns jobs with duplicate fingerprints removed, preserving first
// occurrence order — handy for enumerating a figure matrix whose tables
// share cells. The fingerprint prints every field of the normalised job,
// so Dedupe compares normalised jobs directly rather than formatting a
// fingerprint for each.
func Dedupe(jobs []Job) []Job {
	seen := make(map[Job]bool, len(jobs))
	out := jobs[:0:0]
	for _, j := range jobs {
		n := j.normalised()
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, j)
	}
	return out
}
