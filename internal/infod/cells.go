package infod

import "math/bits"

// cellTable is a daemon's heard set: the cells of every origin it holds,
// kept dense under handles 0..n-1, plus an open-addressed index from
// origin to handle. Nothing in it holds a pointer the garbage collector
// has to trace per cell, and nothing is copied when it grows:
//
//   - Cells live in fixed chunks of chunkLen, allocated the first time the
//     table reaches them and kept for reuse after removals, so a cell
//     pointer stays valid until the next removal.
//   - Removing handle h moves the last cell into h (swap-remove), so the
//     live cells are always handles 0..n-1.
//   - index maps origin to handle+1 (0 marks an empty slot) by linear
//     probing from a Fibonacci hash of the origin. It doubles, rehashing
//     from the dense cells, before its load passes 3/4, and deletion
//     shifts the rest of the probe run back, so there are no tombstones.
type cellTable struct {
	chunks []*[chunkLen]cell
	n      int
	index  []int32
	shift  uint // 64 - log2(len(index))
}

const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
	// minIndex is the index size the first insertion allocates.
	minIndex = 64
)

// len reports how many cells the table holds.
func (t *cellTable) len() int { return t.n }

// at returns the cell under handle h (0 <= h < len()).
func (t *cellTable) at(h int) *cell {
	return &t.chunks[h>>chunkBits][h&(chunkLen-1)]
}

// home is origin's preferred index slot: the top bits of its Fibonacci
// hash, which spread consecutive origin ids across the index.
func (t *cellTable) home(origin int32) int {
	return int((uint64(uint32(origin)) * 0x9E3779B97F4A7C15) >> t.shift)
}

// slot returns the index slot holding origin's handle, or -1.
func (t *cellTable) slot(origin int32) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.index) - 1
	for i := t.home(origin); ; i = (i + 1) & mask {
		v := t.index[i]
		if v == 0 {
			return -1
		}
		if t.at(int(v-1)).origin == origin {
			return i
		}
	}
}

// find returns origin's handle, or -1 when the table does not hold it.
func (t *cellTable) find(origin int) int {
	i := t.slot(int32(origin))
	if i < 0 {
		return -1
	}
	return int(t.index[i] - 1)
}

// insert appends a zeroed cell for origin, which the table must not hold
// yet, and returns it.
func (t *cellTable) insert(origin int) *cell {
	if 4*(t.n+1) > 3*len(t.index) {
		t.grow()
	}
	h := t.n
	if h>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkLen]cell))
	}
	t.n++
	c := t.at(h)
	*c = cell{origin: int32(origin)}
	t.place(c.origin, h)
	return c
}

// place records handle h for origin in the first free slot of its probe
// run.
func (t *cellTable) place(origin int32, h int) {
	mask := len(t.index) - 1
	i := t.home(origin)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int32(h + 1)
}

// grow doubles the index and re-places every cell.
func (t *cellTable) grow() {
	size := 2 * len(t.index)
	if size < minIndex {
		size = minIndex
	}
	t.index = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for h := 0; h < t.n; h++ {
		t.place(t.at(h).origin, h)
	}
}

// remove deletes the cell under handle h and moves the last cell into h.
func (t *cellTable) remove(h int) {
	mask := len(t.index) - 1
	// Backward-shift deletion: walk the probe run past the freed slot and
	// pull back every entry whose home does not lie cyclically in
	// (free, j], so each stays reachable from its home without tombstones.
	free := t.slot(t.at(h).origin)
	for j := (free + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.home(t.at(int(t.index[j] - 1)).origin)
		if (j-home)&mask >= (j-free)&mask {
			t.index[free] = t.index[j]
			free = j
		}
	}
	t.index[free] = 0

	last := t.n - 1
	if h != last {
		moved := t.at(last)
		*t.at(h) = *moved
		t.index[t.slot(moved.origin)] = int32(h + 1)
	}
	t.n--
}
