package trace

import (
	"fmt"
	"slices"

	"ampom/internal/memory"
	"ampom/internal/prng"
	"ampom/internal/simtime"
)

// This file describes page-level workloads as programs: sequential and
// strided sweeps, uniform random access and block-permuted sweeps are the
// leaves, and Concat, Interleave, Repeat and Tile compose them. Workload
// models (e.g. the HPCC kernels) are programs of these nodes.
//
// A Program is an immutable value, built once. A Cursor walks it with an
// explicit stack of the composites it is inside and owns every piece of
// walk state: the sweep in progress, the generator and block order of a
// random or block-permuted leaf, and one sub-cursor per branch of an
// Interleave. Repeat rewinds into its child instead of building anything,
// and a reset cursor keeps its scratch, so replaying a workload allocates
// nothing once the cursor has walked it before.

// op is a node's kind.
type op uint8

const (
	opStrided op = iota + 1
	opRandom
	opBlocked
	opConcat
	opInterleave
	opRepeat
	opTile
)

// Node is one node of a workload program. A leaf (Strided, Sequential,
// RandomUniform, BlockPermuted) is a plain value; a composite is made by a
// Builder, which stores its children, and means something only in the
// program that Builder finishes.
type Node struct {
	op    op
	write bool
	// kids is a composite's first child in its program's node slice: the
	// children are nodes[kids : kids+count] for Concat and Interleave, and
	// nodes[kids] alone for Repeat and Tile.
	kids int32
	// start is a leaf's first page.
	start memory.PageNum
	// count is a leaf's reference count, a Concat's or Interleave's child
	// count, a Repeat's repetitions or a Tile's total page count.
	count int64
	// arg is Strided's page stride, RandomUniform's span, BlockPermuted's
	// block length or a Tile's tile length.
	arg     int64
	compute simtime.Duration
	seed    uint64
}

// Sequential is a leaf sweeping pages [start, start+count) in ascending
// order, charging compute per page, with the given write flag.
func Sequential(start memory.PageNum, count int64, compute simtime.Duration, write bool) Node {
	return Strided(start, count, 1, compute, write)
}

// Strided is a leaf touching count pages starting at start with the given
// page stride (which may be negative for descending sweeps).
func Strided(start memory.PageNum, count int64, stride int64, compute simtime.Duration, write bool) Node {
	return Node{op: opStrided, write: write, start: start, count: count, arg: stride, compute: compute}
}

// RandomUniform is a leaf emitting count references uniformly distributed
// over pages [start, start+span), drawn from its own deterministic
// generator seeded with seed.
func RandomUniform(start memory.PageNum, span int64, count int64, compute simtime.Duration, write bool, seed uint64) Node {
	return Node{op: opRandom, write: write, start: start, count: count, arg: span, compute: compute, seed: seed}
}

// BlockPermuted is a leaf touching every page of [start, start+count)
// exactly once, visiting fixed-size blocks in a deterministic pseudo-random
// order but pages within a block sequentially. This is the page-level shape
// of cache-blocked permutations such as an FFT's bit-reversal transpose:
// globally scattered, locally sequential. With blockPages 1 it is a
// page-level random permutation.
func BlockPermuted(start memory.PageNum, count, blockPages int64, compute simtime.Duration, write bool, seed uint64) Node {
	return Node{op: opBlocked, write: write, start: start, count: count, arg: max(blockPages, 1), compute: compute, seed: seed}
}

// Program returns the program made of the leaf n alone. A composite's
// program comes from the Builder that made it.
func (n Node) Program() Program {
	if n.op >= opConcat {
		panic("trace: a composite node's program comes from its Builder")
	}
	return Program{root: n}
}

// Builder assembles the composites of one program. A composite copies its
// children into the builder's node slice, so children are plain values
// until their parent places them; Program finishes the program around its
// root, after which the builder must not be used again. The zero Builder
// is ready to use.
type Builder struct {
	nodes []Node
}

// Grow reserves room for n more nodes, so a builder that knows its
// program's size allocates the node slice once. The root is not stored in
// the slice and needs no room.
func (b *Builder) Grow(n int) { b.nodes = slices.Grow(b.nodes, n) }

// place stores kids contiguously and returns the composite over them.
func (b *Builder) place(o op, count int64, kids ...Node) Node {
	first := len(b.nodes)
	b.nodes = append(b.nodes, kids...)
	return Node{op: o, kids: int32(first), count: count}
}

// Concat runs each part to exhaustion in order.
func (b *Builder) Concat(parts ...Node) Node {
	return b.place(opConcat, int64(len(parts)), parts...)
}

// Interleave draws one reference from each part in round-robin order until
// all are exhausted; an exhausted part drops out of the rotation. Lock-step
// array sweeps (STREAM's a[i] = b[i] + s·c[i]) are interleavings of
// sequential sweeps.
func (b *Builder) Interleave(parts ...Node) Node {
	return b.place(opInterleave, int64(len(parts)), parts...)
}

// Repeat runs part n times back to back, each time from its start.
func (b *Builder) Repeat(n int, part Node) Node {
	return b.place(opRepeat, int64(n), part)
}

// Tile runs body once per block-page tile of [0, total), in ascending
// order. Inside a tile the body's pages shift up by the tile's offset, and
// its sweeps are clipped to the tile's length: a Strided or BlockPermuted
// leaf covers at most that many pages, and a RandomUniform leaf's span is
// at most that long. The last tile is shorter when block does not divide
// total. A blocked pass over an array is one Tile of the per-block work,
// however many blocks the array has. Tiles nest: an inner Tile's total is
// clipped to the outer tile's length and its offsets add to the outer's.
func (b *Builder) Tile(total, block int64, body Node) Node {
	n := b.place(opTile, total, body)
	n.arg = max(block, 1)
	return n
}

// Program finishes the builder's program around root.
func (b *Builder) Program(root Node) Program {
	return Program{nodes: b.nodes, root: root}
}

// Program is a workload's reference stream as an immutable value: its root
// node and the node slice its composites index. Walk it with a Cursor; a
// program can be walked any number of times, by any number of cursors.
type Program struct {
	nodes []Node
	root  Node
}

// Repeat returns the program that runs p n times back to back.
func (p Program) Repeat(n int) Program {
	b := Builder{nodes: slices.Clip(p.nodes)}
	return b.Program(b.Repeat(n, p.root))
}

// CheckPages reports an error when a leaf of p references a page outside
// [0, pages) in its first tile, where no Tile shifts it, naming the first
// such page. Leaves a walk never reaches are checked too. Later tiles
// shift a leaf further, so a walker still checks each reference against
// its footprint; this check comes first because a cursor sizes a
// block-permuted leaf's block order from its count, so one that leaves
// the footprint could demand any amount of memory before its first
// reference.
func (p Program) CheckPages(pages int64) error {
	type item struct {
		i    int32
		clip int64
	}
	stack := []item{{rootNode, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &p.root
		if it.i != rootNode {
			n = &p.nodes[it.i]
		}
		switch n.op {
		case opConcat, opInterleave:
			for k := int32(0); k < int32(n.count); k++ {
				stack = append(stack, item{n.kids + k, it.clip})
			}
		case opRepeat:
			stack = append(stack, item{n.kids, it.clip})
		case opTile:
			stack = append(stack, item{n.kids, min(n.arg, clipTo(n.count, it.clip))})
		}
		if page, out := n.outside(it.clip, pages); out {
			return fmt.Errorf("trace: leaf %d references page %d of %d", it.i, page, pages)
		}
	}
	return nil
}

// outside returns the first page outside [0, pages) that leaf n reaches
// unshifted, clipped to clip, and whether it reaches one; a composite
// reaches none itself. A random leaf reaches every page of its span.
func (n *Node) outside(clip, pages int64) (int64, bool) {
	start := int64(n.start)
	var count, span int64
	switch n.op {
	case opStrided:
		count = clipTo(n.count, clip)
	case opRandom:
		count, span = n.count, clipTo(n.arg, clip)
	case opBlocked:
		count = clipTo(n.count, clip)
		span = count
	default:
		return 0, false
	}
	switch {
	case count == 0:
		return 0, false
	case start < 0 || start >= pages:
		return start, true
	case span > pages-start:
		return pages, true
	}
	// A sweep steps by its stride: find its first step past either end.
	switch steps, stride := count-1, n.arg; {
	case n.op != opStrided:
	case stride > 0 && steps > (pages-1-start)/stride:
		return start + stride*((pages-1-start)/stride+1), true
	case stride < 0 && steps > start/-stride:
		return start + stride*(start/-stride+1), true
	}
	return 0, false
}

// Open returns a new cursor at the start of the program.
func (p Program) Open() *Cursor {
	c := new(Cursor)
	c.Reset(p)
	return c
}

// sweep is a run of references at a fixed page stride.
type sweep struct {
	page    memory.PageNum
	stride  memory.PageNum
	left    int64
	compute simtime.Duration
	write   bool
}

// frame is one composite the cursor is inside.
type frame struct {
	// node is the composite's index in the program's nodes, or rootNode
	// for the program's root.
	node int32
	// i counts the children entered (Concat), repetitions run (Repeat),
	// tiles run (Tile) or turns taken (Interleave).
	i int64
	// shift and clip are the enclosing tile's offset and length (clip 0
	// outside any tile).
	shift memory.PageNum
	clip  int64
	// subs holds an Interleave's cursors, one per part, and alive how many
	// are not yet exhausted. The slice outlives the frame: the next
	// Interleave entered at this depth reuses it.
	subs  []Cursor
	alive int
}

// rootNode is the node index of a program's root.
const rootNode = -1

// Cursor walks a Program, yielding its references in order. It is not
// safe for concurrent use. Once exhausted, Next keeps returning ok ==
// false until the cursor is Reset.
type Cursor struct {
	// run is the sweep in progress, which Next serves on its fast path.
	run sweep

	prog  Program
	stack []frame
	done  bool

	// leaf is the random or block-permuted leaf in progress (op 0 when
	// none), shifted and clipped to its tile: a random leaf counts its
	// remaining draws down in count, a block-permuted one walks order from
	// block bi. rng is the leaf's generator and order its block order, a
	// buffer every block-permuted leaf the cursor walks reuses.
	leaf  Node
	rng   prng.Source
	order []int
	bi    int

	// saved is the sweep a pushed reference interrupted, resumed after it.
	saved  sweep
	pushed bool
}

// Reset rewinds the cursor to the start of p. The cursor keeps its scratch
// (stack, block-order buffer, interleave cursors), so walking a program of
// the same shape again allocates nothing.
func (c *Cursor) Reset(p Program) { c.start(p, rootNode, 0, 0) }

// Grow reserves room for the block order of a block-permuted leaf of up to
// blocks blocks, so a cursor told the largest it will walk sizes its buffer
// once.
func (c *Cursor) Grow(blocks int) { c.order = slices.Grow(c.order[:0], blocks) }

// Next returns the next reference; ok is false once the program is
// exhausted.
func (c *Cursor) Next() (ref Ref, ok bool) {
	if c.run.left > 0 {
		return c.take(), true
	}
	return c.advance()
}

// Push makes r the next reference Next returns, ahead of the rest of the
// stream. At most one reference may be pushed between two calls of Next.
func (c *Cursor) Push(r Ref) {
	c.saved, c.pushed = c.run, true
	c.run = sweep{page: r.Page, left: 1, compute: r.Compute, write: r.Write}
}

// take yields the next reference of the sweep in progress.
func (c *Cursor) take() Ref {
	r := Ref{Page: c.run.page, Compute: c.run.compute, Write: c.run.write}
	c.run.page += c.run.stride
	c.run.left--
	return r
}

// start points the cursor at node i of p, within a tile at shift of
// length clip.
func (c *Cursor) start(p Program, i int32, shift memory.PageNum, clip int64) {
	c.prog = p
	c.stack = c.stack[:0]
	c.done = false
	c.run = sweep{}
	c.leaf.op = 0
	c.pushed = false
	c.enter(i, shift, clip)
}

func (c *Cursor) node(i int32) *Node {
	if i == rootNode {
		return &c.prog.root
	}
	return &c.prog.nodes[i]
}

// clipTo limits n to a tile's length clip (0: no tile).
func clipTo(n, clip int64) int64 {
	if clip > 0 && n > clip {
		return clip
	}
	return n
}

// enter begins node i: a sweep becomes the run, a random or block-permuted
// leaf the leaf in progress, and a composite a new frame.
func (c *Cursor) enter(i int32, shift memory.PageNum, clip int64) {
	n := c.node(i)
	switch n.op {
	case opStrided:
		c.run = sweep{page: n.start + shift, stride: memory.PageNum(n.arg), left: clipTo(n.count, clip),
			compute: n.compute, write: n.write}
	case opRandom:
		c.leaf = *n
		c.leaf.start += shift
		c.leaf.arg = clipTo(n.arg, clip)
		c.rng.Reseed(n.seed)
	case opBlocked:
		c.leaf = *n
		c.leaf.start += shift
		c.leaf.count = clipTo(n.count, clip)
		c.rng.Reseed(n.seed)
		c.order = c.rng.PermInto(c.order, int((c.leaf.count+n.arg-1)/n.arg))
		c.bi = 0
	case opInterleave:
		f := c.push(i, shift, clip)
		k := int(n.count)
		f.subs = slices.Grow(f.subs[:0], k)[:k]
		for j := range f.subs {
			f.subs[j].start(c.prog, n.kids+int32(j), shift, clip)
		}
		f.alive = k
	default:
		c.push(i, shift, clip)
	}
}

// push opens a frame for composite i, reusing the slot (and its interleave
// cursors) of an earlier frame at the same depth.
func (c *Cursor) push(i int32, shift memory.PageNum, clip int64) *frame {
	d := len(c.stack)
	if d < cap(c.stack) {
		c.stack = c.stack[:d+1]
	} else {
		c.stack = append(c.stack, frame{})
	}
	f := &c.stack[d]
	f.node, f.i, f.shift, f.clip = i, 0, shift, clip
	return f
}

// advance is Next's slow path: it resumes a pushed-over sweep, steps the
// random or block-permuted leaf in progress, or walks the stack to the
// next leaf, and returns the reference that yields.
func (c *Cursor) advance() (Ref, bool) {
	if c.pushed {
		c.run, c.pushed = c.saved, false
	}
	for {
		if c.run.left > 0 {
			return c.take(), true
		}
		switch c.leaf.op {
		case opRandom:
			if c.leaf.count > 0 {
				c.leaf.count--
				p := c.leaf.start + memory.PageNum(c.rng.Uint64n(uint64(c.leaf.arg)))
				return Ref{Page: p, Compute: c.leaf.compute, Write: c.leaf.write}, true
			}
			c.leaf.op = 0
		case opBlocked:
			if c.bi < len(c.order) {
				base := int64(c.order[c.bi]) * c.leaf.arg
				c.bi++
				c.run = sweep{page: c.leaf.start + memory.PageNum(base), stride: 1,
					left: min(c.leaf.arg, c.leaf.count-base), compute: c.leaf.compute, write: c.leaf.write}
				continue
			}
			c.leaf.op = 0
		}
		if len(c.stack) == 0 {
			c.done = true
			return Ref{}, false
		}
		f := &c.stack[len(c.stack)-1]
		n := c.node(f.node)
		switch n.op {
		case opConcat:
			if f.i < n.count {
				f.i++
				c.enter(n.kids+int32(f.i-1), f.shift, f.clip)
				continue
			}
		case opRepeat:
			if f.i < n.count {
				f.i++
				c.enter(n.kids, f.shift, f.clip)
				continue
			}
		case opTile:
			total := clipTo(n.count, f.clip)
			if off := f.i * n.arg; off < total {
				f.i++
				c.enter(n.kids, f.shift+memory.PageNum(off), min(n.arg, total-off))
				continue
			}
		case opInterleave:
			for f.alive > 0 {
				s := &f.subs[f.i%int64(len(f.subs))]
				f.i++
				if s.done {
					continue
				}
				if r, ok := s.Next(); ok {
					return r, true
				}
				f.alive--
			}
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
}
