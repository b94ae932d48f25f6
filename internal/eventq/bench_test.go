package eventq

import (
	"fmt"
	"testing"

	"ampom/internal/prng"
	"ampom/internal/simtime"
)

// BenchmarkQueue times one Pop plus one Push at a steady queue depth: 256,
// the star presets' pending heap, and 16384, mega-farm's mean pending heap.
// Every tenth popped event is re-pushed one fixed period after it fired,
// as a ticker re-arms; the others land a random delay of up to two periods
// ahead, as one-shot model events do.
func BenchmarkQueue(b *testing.B) {
	const period = uint64(simtime.Second)
	for _, depth := range []int{256, 16384} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := prng.New(uint64(depth))
			nop := func() {}
			var q Queue
			for i := 0; i < depth; i++ {
				q.Push(simtime.Time(rng.Uint64n(2*period)), 0, nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.Pop()
				delay := period
				if i%10 != 0 {
					delay = 1 + rng.Uint64n(2*period)
				}
				q.Push(e.At+simtime.Time(delay), e.At, nop)
			}
		})
	}
}
