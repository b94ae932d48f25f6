package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ampom/internal/migrate"
	"ampom/internal/scenario"
)

// env is everything a workload is set up from: the inputs come from the
// seed alone, and load is capped at the host's core count.
type env struct {
	seed    uint64
	workers int // closed-loop campaign workers, at most NumCPU
	shards  int // event-engine shards of the sharded workload, at most NumCPU
	tiny    bool
}

// plan is a workload after set-up: the resolved specs and enumerated jobs.
type plan interface {
	// run executes one untraced batch of every job.
	run() *batch
	// runTraced executes the same batch with spans around each layer call
	// under root, checking every output against the untraced batch ref.
	runTraced(tr *tracer, root int, ref *batch) *batch
	// shape sizes the layer probes after the workload.
	shape() shape
	// shardCount is the shard count the workload's scenario runs use.
	shardCount() int
}

// batch is one timed pass over a workload's jobs and what it produced.
type batch struct {
	loop
	jobs      int
	events    uint64
	attempted int
	failed    int
	problems  []string
	digest    string
	// metrics holds the model's end-to-end figures and the per-layer
	// counts and shares this batch measured.
	metrics map[string]float64

	reports []*scenario.Report // scenario workloads: one per job
	results []*migrate.Result  // paper-migration: one per job
}

// release drops the batch's raw outputs once they are checked, so later
// batches do not pay for marking them at every collection.
func (b *batch) release() { b.reports, b.results = nil, nil }

// fail counts one failed operation with its reason.
func (b *batch) fail(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// loop is the measurement of one closed-loop pass.
type loop struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time over the pass
	alloc   uint64
	rss     float64 // peak resident set during the pass, MB
	lat     []time.Duration
	jobCPU  []time.Duration // each job's own CPU time
	busy    time.Duration
	workers int
}

// closedLoop runs n jobs on up to workers goroutines. A worker takes the
// next job only when its previous one has finished, so a slower system is
// offered proportionally less work — the way a researcher's campaign
// drains its queue. Each worker is locked to its OS thread, so a job's CPU
// time is its thread's. The heap is collected first so every pass starts
// from the same state, and the collection is not measured.
func closedLoop(n, workers int, job func(i int)) loop {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	runtime.GC()
	resetPeakRSS()
	lat := make([]time.Duration, n)
	jobCPU := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	a0, c0 := totalAlloc(), processCPU()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t, c := time.Now(), threadCPU()
				job(i)
				lat[i], jobCPU[i] = time.Since(t), threadCPU()-c
			}
		}()
	}
	wg.Wait()
	l := loop{wall: time.Since(start), cpu: processCPU() - c0, alloc: totalAlloc() - a0,
		rss: peakRSSMB(), lat: lat, jobCPU: jobCPU, workers: workers}
	for _, d := range lat {
		l.busy += d
	}
	return l
}

// newBatch starts a batch from a finished loop.
func newBatch(l loop, jobs int) *batch {
	return &batch{loop: l, jobs: jobs, metrics: make(map[string]float64)}
}
