package core

import (
	"testing"

	"ampom/internal/memory"
	"ampom/internal/prng"
	"ampom/internal/simtime"
)

// faultStreams are the fault patterns the allocation gate and the analysis
// benchmark replay: a sequential sweep, the §3.4 worked example's window
// replayed at advancing offsets (several interleaved strided streams, so
// the pivot branch runs), and uniformly random pages (no streams, so the
// read-ahead branch runs).
func faultStreams(n int) map[string][]memory.PageNum {
	example := []memory.PageNum{13, 27, 7, 8, 14, 8, 3, 15, 4, 5}
	src := prng.New(7)
	seq := make([]memory.PageNum, n)
	strided := make([]memory.PageNum, n)
	random := make([]memory.PageNum, n)
	for i := range n {
		seq[i] = memory.PageNum(1000 + i)
		strided[i] = example[i%len(example)] + memory.PageNum(32*(i/len(example)))
		random[i] = memory.PageNum(src.Intn(1 << 20))
	}
	return map[string][]memory.PageNum{"sequential": seq, "strided": strided, "random": random}
}

// replay records stream[i] as a fault 1 ms after the previous one and
// analyses it, returning the analysis.
func replay(p *Prefetcher, stream []memory.PageNum, i int) Analysis {
	p.RecordFault(stream[i%len(stream)], simtime.Time(i)*simtime.Time(simtime.Millisecond), 0.9)
	return p.Analyze(est(20*simtime.Millisecond, 400*simtime.Microsecond))
}

// TestAnalyzeAllocFree: once its buffers are warm, the per-fault analysis
// at the default configuration allocates nothing, whatever the stream.
func TestAnalyzeAllocFree(t *testing.T) {
	for name, stream := range faultStreams(4096) {
		p := MustNew(DefaultConfig(), 1<<21)
		i := 0
		for ; i < 256; i++ {
			replay(p, stream, i)
		}
		zoned := false
		allocs := testing.AllocsPerRun(1000, func() {
			zoned = len(replay(p, stream, i).Zone) > 0 || zoned
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per analysis, want 0", name, allocs)
		}
		if !zoned {
			t.Errorf("%s: no analysis produced a zone", name)
		}
	}
}

// BenchmarkAnalyze measures one fault's RecordFault plus Analyze at the
// default configuration for each fault pattern, so a change in the
// per-fault analysis cost is attributed to this layer.
func BenchmarkAnalyze(b *testing.B) {
	streams := faultStreams(4096)
	for _, name := range []string{"sequential", "strided", "random"} {
		stream := streams[name]
		b.Run(name, func(b *testing.B) {
			p := MustNew(DefaultConfig(), 1<<21)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				replay(p, stream, i)
			}
		})
	}
}
