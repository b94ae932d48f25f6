package main

import (
	"container/heap"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// The host's speed drifts: on a shared virtual machine a neighbour's load
// slows every instruction by tens of percent for a minute at a time, and
// CPU time tracks the slowdown. calibrate measures that speed with a fixed
// unit of work that uses none of the repository's code — heap operations,
// map traffic, sorting and small allocations, the instruction mix of an
// event-driven simulator. It collects the heap first and runs with
// collection paused, so the simulator's garbage cannot charge collector
// work to the unit and a change to the simulator cannot move it.

// calUnit is one fixed unit of calibration work; it returns a checksum so
// the compiler cannot drop it.
func calUnit(seed uint64) uint64 {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := &calHeap{}
	for i := 0; i < 2048; i++ {
		heap.Push(h, &calItem{at: next() % 1e6})
	}
	m := make(map[uint64]uint64, 4096)
	var sum uint64
	for i := 0; i < 60000; i++ {
		it := heap.Pop(h).(*calItem)
		sum += it.at
		heap.Push(h, &calItem{at: it.at + next()%1e4})
		k := next() % 8192
		m[k] += it.at
		sum += m[(k*7)%8192]
	}
	xs := make([]uint64, 8192)
	for i := range xs {
		xs[i] = next()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return sum + xs[len(xs)/2]
}

type calItem struct{ at uint64 }

type calHeap []*calItem

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calItem)) }
func (h *calHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// calRef is the calibration unit's thread CPU time on the reference host (a
// 2-vCPU Xeon virtual machine, Go 1.24) at its usual speed. A CPU time t
// measured while the unit takes c is reported as t × (calRef / c)^calExp:
// CPU seconds at the reference speed.
const calRef = 23 * time.Millisecond

// calExp is how strongly the workloads' CPU time follows the unit's. The
// unit stays in cache, while the simulator also waits on memory, which a
// neighbour's load slows less: over 80 runs on the reference host, the
// slope of log batch CPU time against log calibration time was 0.60–0.89
// across the four workloads, 0.75 on average. Scaling by the full ratio
// over-corrected the memory-heavy mega-farm by 12 % in a fast hour.
const calExp = 0.75

// speedFactor is the factor that scales CPU times measured while the
// calibration unit took c seconds to the reference speed.
func speedFactor(c float64) float64 {
	return math.Pow(calRef.Seconds()/c, calExp)
}

// calSink keeps calibration checksums observable.
var calSink uint64

// calibrate runs the calibration unit on `threads` OS threads at once,
// several units each, and returns the median thread CPU time of one unit.
func calibrate(threads int) time.Duration {
	const units = 8
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mu sync.Mutex
	var samples []float64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var local []float64
			var sum uint64
			for u := 0; u < units; u++ {
				c := threadCPU()
				sum += calUnit(uint64(t*units + u + 1))
				local = append(local, float64(threadCPU()-c))
			}
			mu.Lock()
			samples = append(samples, local...)
			calSink += sum
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return time.Duration(median(samples))
}
