package infod

import (
	"math/bits"

	"ampom/internal/simtime"
)

// cell is one heard origin's state, flat and pointer-free, in 40 bytes:
// the origin's latest entry (load, stamp, queue, memory), the per-origin
// staleness EWMA, and the recency-ring slot of the origin's latest
// refresh. Queue and memory are held in 32 bits, as the wire carries them
// (see narrow). Every cell has an age sample: merge records one as it
// inserts the cell.
type cell struct {
	load   float64
	stamp  simtime.Time
	ageEst simtime.Duration
	origin int32
	queue  int32
	mem    int32
	// slot is the cell's recency-ring slot plus one; 0 once the ring head
	// has overwritten it, or before the first refresh.
	slot int32
}

// entry returns the cell's reader-side load entry.
func (c *cell) entry() GossipEntry {
	return GossipEntry{
		Sample: LoadSample{Load: c.load, Queue: int(c.queue), UsedMemMB: int64(c.mem)},
		Stamp:  c.stamp,
	}
}

// wire returns the cell's entry as it goes out in a window.
func (c *cell) wire() gossipEntryWire {
	return gossipEntryWire{Load: c.load, Stamp: c.stamp, Origin: c.origin, Queue: c.queue, MemMB: c.mem}
}

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
//   - index is keyed in place: each slot holds origin<<32 | handle+1 (0
//     marks an empty slot), so a probe compares origins inside the index
//     and never loads a cell, hit, miss or collision. Slots are found by
//     linear probing from a Fibonacci hash of the origin. reserve sizes
//     the index once for an expected heard set; past that, it doubles,
//     rehashing its own keys, before its load passes 3/4. Deletion
//     shifts the rest of the probe run back, so there are no tombstones.
type cellTable struct {
	chunks []*[chunkLen]cell
	n      int
	index  []uint64
	shift  uint // 64 - log2(len(index))
}

const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
	// minIndex is the index size the first insertion allocates.
	minIndex = 64
)

// key packs origin and handle h into an index slot value.
func key(origin int32, h int) uint64 { return uint64(uint32(origin))<<32 | uint64(uint32(h+1)) }

// keyOrigin and keyHandle unpack a non-empty index slot value.
func keyOrigin(k uint64) int32 { return int32(k >> 32) }
func keyHandle(k uint64) int   { return int(uint32(k)) - 1 }

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

// slot returns the index slot holding origin's key, or -1.
func (t *cellTable) slot(origin int32) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.index) - 1
	for i := t.home(origin); ; i = (i + 1) & mask {
		k := t.index[i]
		if k == 0 {
			return -1
		}
		if keyOrigin(k) == origin {
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
	return keyHandle(t.index[i])
}

// insert appends a zeroed cell for origin, which the table must not hold
// yet, and returns its handle.
func (t *cellTable) insert(origin int) int {
	if 4*(t.n+1) > 3*len(t.index) {
		t.grow()
	}
	h := t.n
	if h>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkLen]cell))
	}
	t.n++
	*t.at(h) = cell{origin: int32(origin)}
	t.place(key(int32(origin), h))
	return h
}

// place stores k in the first free slot of its origin's probe run.
func (t *cellTable) place(k uint64) {
	mask := len(t.index) - 1
	i := t.home(keyOrigin(k))
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = k
}

// reserve sizes the index of an empty table for cells origins: the
// smallest power of two, at least minIndex, that holds them below the 3/4
// load grow keeps. Nothing reads the index in slot order, so its size
// never changes what a daemon reads, only when it allocates.
func (t *cellTable) reserve(cells int) {
	size := minIndex
	for 3*size < 4*cells {
		size *= 2
	}
	t.resize(size)
}

// grow doubles the index and re-places every key.
func (t *cellTable) grow() { t.resize(max(2*len(t.index), minIndex)) }

// resize replaces the index with size (a power of two) slots and
// re-places every key.
func (t *cellTable) resize(size int) {
	old := t.index
	t.index = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			t.place(k)
		}
	}
}

// remove deletes the cell under handle h and moves the last cell into h.
func (t *cellTable) remove(h int) {
	mask := len(t.index) - 1
	// Backward-shift deletion: walk the probe run past the freed slot and
	// pull back every key whose home does not lie cyclically in (free, j],
	// so each stays reachable from its home without tombstones.
	free := t.slot(t.at(h).origin)
	for j := (free + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.home(keyOrigin(t.index[j]))
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
		t.index[t.slot(moved.origin)] = key(moved.origin, h)
	}
	t.n--
}
