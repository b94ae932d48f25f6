package memory

import (
	"math/rand/v2"
	"testing"
)

// TestPageSetMatchesMap drives a PageSet and a map model with the same
// random Add, Remove and Has calls over every page of the set's size and
// checks every answer and the size against the model, before and after
// clear empties the set.
func TestPageSetMatchesMap(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 1000} {
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		s := NewPageSet(n)
		if len(s) != int((n+63)/64) {
			t.Fatalf("n=%d: %d words", n, len(s))
		}
		for round := 0; round < 2; round++ {
			model := map[PageNum]bool{}
			for i := 0; i < 20*int(n); i++ {
				p := PageNum(rng.Int64N(n))
				var got, want bool
				switch op := rng.IntN(3); op {
				case 0:
					got, want = s.Add(p), !model[p]
					model[p] = true
				case 1:
					got, want = s.Remove(p), model[p]
					delete(model, p)
				default:
					got, want = s.Has(p), model[p]
				}
				if got != want {
					t.Fatalf("n=%d round %d op %d: page %d answered %v, want %v", n, round, i, p, got, want)
				}
				if s.Len() != int64(len(model)) {
					t.Fatalf("n=%d round %d op %d: Len %d, model %d", n, round, i, s.Len(), len(model))
				}
			}
			clear(s)
			if s.Len() != 0 {
				t.Fatalf("n=%d: Len %d after clear", n, s.Len())
			}
			for p := PageNum(0); p < PageNum(n); p++ {
				if s.Has(p) {
					t.Fatalf("n=%d: page %d still in the set after clear", n, p)
				}
			}
		}
	}
}
