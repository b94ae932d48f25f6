package infod

import (
	"fmt"
	"math"
	"math/bits"

	"ampom/internal/simtime"
)

// cell is one heard origin's state, flat and pointer-free, in 32 bytes:
// the stamp and sequence number of the origin's latest sample, the
// per-origin staleness EWMA, and the recency-ring slot of the origin's
// latest refresh. The sample's values stay in the origin's ring (see
// sampleRing): merge, compose, the sweeps and every expiry check need
// only the stamp, and only the balancer's view reads the values. Every
// cell has an age sample: merge records one as it inserts the cell.
type cell struct {
	stamp  simtime.Time
	ageEst simtime.Duration
	origin int32
	seq    uint32
	// slot is the cell's recency-ring slot plus one; 0 once the ring head
	// has overwritten it, or before the first refresh.
	slot int32
}

// wire returns the cell's entry as it goes out in a window.
func (c *cell) wire() gossipEntryWire {
	return gossipEntryWire{Stamp: c.stamp, Origin: c.origin, Seq: c.seq}
}

// sample is one load sample an origin composed, held once in the
// origin's ring, in 32 bytes. Queue and memory are held in 32 bits (see
// narrow). seq is the sample's sequence number, 0 for a slot never
// written.
type sample struct {
	load  float64
	stamp simtime.Time
	queue int32
	mem   int32
	seq   uint32
}

// entry returns the sample as a reader-side load entry.
func (s *sample) entry() GossipEntry {
	return GossipEntry{
		Sample: LoadSample{Load: s.load, Queue: int(s.queue), UsedMemMB: int64(s.mem)},
		Stamp:  s.stamp,
	}
}

// sampleRing is one origin's recent samples: sequence number seq sits in
// slot seq mod len(slots), a power of two. Only the origin writes it, on
// its own engine; every other daemon reads it only through Fresh and
// Entry, which run on the sequential engine or while every shard is
// paused at one instant, so the ring needs no atomics.
//
// put overwrites a slot only when the sample in it has expired at the
// origin's clock, and doubles the ring otherwise. A reader's clock is
// never behind the origin's when it reads, so a cell whose sample was
// overwritten has expired for the reader too, and the reader never asks
// for it; at panics if it does.
type sampleRing struct {
	slots []sample
	last  uint32 // seq of the latest sample; 0 before the first
}

// put appends s at instant now and returns its sequence number.
func (r *sampleRing) put(s sample, now simtime.Time) uint32 {
	seq := r.last + 1
	if seq == 0 {
		panic("infod: sample sequence numbers exhausted")
	}
	if old := &r.slots[seq&r.mask()]; old.seq != 0 && !expired(old.stamp, now) {
		r.grow()
	}
	s.seq = seq
	r.slots[seq&r.mask()] = s
	r.last = seq
	return seq
}

// mask is len(slots)-1.
func (r *sampleRing) mask() uint32 { return uint32(len(r.slots) - 1) }

// grow doubles the ring. Its samples are consecutive sequence numbers,
// so they keep distinct slots, and the slot of the next one is free.
func (r *sampleRing) grow() {
	old := r.slots
	r.slots = make([]sample, 2*len(old))
	for _, s := range old {
		if s.seq != 0 {
			r.slots[s.seq&r.mask()] = s
		}
	}
}

// at returns sample seq, which must still be in the ring.
func (r *sampleRing) at(seq uint32) *sample {
	s := &r.slots[seq&r.mask()]
	if s.seq != seq {
		panic(fmt.Sprintf("infod: sample %d read after sample %d rewrote its slot", seq, s.seq))
	}
	return s
}

// ringLen is the ring an origin starts with: the smallest power of two
// at or above the samples it composes within MaxAge, one per push period
// plus a pull answer every PullEvery periods, and two more. An origin
// that answers more pulls than that doubles its ring.
func ringLen(cfg GossipConfig) int {
	periods := math.Ceil(float64(MaxAge) / float64(cfg.Period))
	need := periods*(1+1.0/PullEvery) + 2
	n := 1
	for float64(n) < need {
		n *= 2
	}
	return n
}

// SampleStore holds the sample rings of a gossip plane's n origins, one
// per daemon. The fabric builds one per plane and hands it to every
// daemon it makes.
type SampleStore struct {
	rings []sampleRing
}

// NewSampleStore returns the store of an n-node gossip plane.
func NewSampleStore(n int) *SampleStore { return &SampleStore{rings: make([]sampleRing, n)} }

// open sizes origin's ring to size slots, a power of two, and returns it.
// It panics when the origin has a ring already: one daemon per origin.
func (st *SampleStore) open(origin, size int) *sampleRing {
	r := &st.rings[origin]
	if r.slots != nil {
		panic(fmt.Sprintf("infod: origin %d has a gossip daemon already", origin))
	}
	r.slots = make([]sample, size)
	return r
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
//   - index is keyed in place: each 4-byte slot holds
//     origin<<16 | handle+1 (0 marks an empty slot), so a probe compares
//     origins inside the index and never loads a cell, hit, miss or
//     collision. Both halves fit 16 bits because NewGossip refuses more
//     than MaxGossipNodes nodes, so an origin is below 1<<16 and a heard
//     set holds fewer than 1<<16-1 cells. Slots are found by
//     linear probing from a Fibonacci hash of the origin. reserve sizes
//     the index once for an expected heard set; past that, it doubles,
//     rehashing its own keys, before its load passes 3/4. Deletion
//     shifts the rest of the probe run back, so there are no tombstones.
type cellTable struct {
	chunks []*[chunkLen]cell
	n      int
	index  []uint32
	shift  uint // 64 - log2(len(index))
}

const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
	// minIndex is the index size the first insertion allocates.
	minIndex = 64
)

// key packs origin and handle h into an index slot value.
func key(origin int32, h int) uint32 { return uint32(origin)<<16 | uint32(h+1) }

// keyOrigin and keyHandle unpack a non-empty index slot value.
func keyOrigin(k uint32) int32 { return int32(k >> 16) }
func keyHandle(k uint32) int   { return int(k&0xffff) - 1 }

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
func (t *cellTable) place(k uint32) {
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
	t.index = make([]uint32, size)
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
