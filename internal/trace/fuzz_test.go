package trace

import (
	"testing"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// fuzzProgram grows a random nested program from fuzz bytes and renders it
// twice: as a program through a Builder, and as the oracle composition
// that yields the same stream, with every Tile expanded into a Concat of
// its tiles' bodies, each shifted and clipped to its tile.
type fuzzProgram struct {
	shape []byte
	start memory.PageNum
	seed  uint64
}

// next consumes one shape byte (0 once the shape runs out).
func (g *fuzzProgram) next() int64 {
	if len(g.shape) == 0 {
		return 0
	}
	v := g.shape[0]
	g.shape = g.shape[1:]
	return int64(v)
}

// spec is one node of a generated program.
type spec struct {
	op           op
	start        memory.PageNum
	count, arg   int64
	write        bool
	seed         uint64
	total, block int64 // Tile
	kids         []spec
}

// gen draws a node; below depth 3 it may be a composite.
func (g *fuzzProgram) gen(depth int) spec {
	kinds := int64(7)
	if depth >= 3 {
		kinds = 3
	}
	s := spec{op: opStrided + op(g.next()%kinds), write: g.next()%2 == 1}
	g.seed = g.seed*6364136223846793005 + 1442695040888963407
	switch s.op {
	case opStrided:
		s.start, s.count, s.arg = g.start+memory.PageNum(g.next()), g.next()%40, g.next()%9-4
	case opRandom:
		s.start, s.count, s.arg, s.seed = g.start+memory.PageNum(g.next()), g.next()%40, g.next()%64+1, g.seed
	case opBlocked:
		s.start, s.count, s.arg, s.seed = g.start+memory.PageNum(g.next()), g.next()%70, g.next()%8, g.seed
	case opConcat, opInterleave:
		s.kids = make([]spec, g.next()%4)
	case opRepeat:
		s.count, s.kids = g.next()%4, make([]spec, 1)
	case opTile:
		s.total, s.block, s.kids = g.next()%80, g.next()%20, make([]spec, 1)
	}
	for i := range s.kids {
		s.kids[i] = g.gen(depth + 1)
	}
	return s
}

// node builds s with b.
func (s spec) node(b *Builder) Node {
	kids := make([]Node, len(s.kids))
	for i, k := range s.kids {
		kids[i] = k.node(b)
	}
	switch s.op {
	case opStrided:
		return Strided(s.start, s.count, s.arg, simtime.Microsecond, s.write)
	case opRandom:
		return RandomUniform(s.start, s.arg, s.count, simtime.Microsecond, s.write, s.seed)
	case opBlocked:
		return BlockPermuted(s.start, s.count, s.arg, simtime.Microsecond, s.write, s.seed)
	case opConcat:
		return b.Concat(kids...)
	case opInterleave:
		return b.Interleave(kids...)
	case opRepeat:
		return b.Repeat(int(s.count), kids[0])
	default:
		return b.Tile(s.total, s.block, kids[0])
	}
}

// oracle renders s as the oracle composition, inside a tile at shift of
// length clip (0 outside any tile).
func (s spec) oracle(shift memory.PageNum, clip int64) oracleFactory {
	switch s.op {
	case opStrided:
		return oracleStrided(s.start+shift, clipTo(s.count, clip), s.arg, simtime.Microsecond, s.write)
	case opRandom:
		return oracleRandomUniform(s.start+shift, clipTo(s.arg, clip), s.count, simtime.Microsecond, s.write, s.seed)
	case opBlocked:
		return oracleBlockPermuted(s.start+shift, clipTo(s.count, clip), s.arg, simtime.Microsecond, s.write, s.seed)
	case opRepeat:
		return oracleRepeat(int(s.count), s.kids[0].oracle(shift, clip))
	case opTile:
		block, total := max(s.block, 1), clipTo(s.total, clip)
		var tiles []oracleFactory
		for off := int64(0); off < total; off += block {
			tiles = append(tiles, s.kids[0].oracle(shift+memory.PageNum(off), min(block, total-off)))
		}
		return oracleConcat(tiles...)
	}
	kids := make([]oracleFactory, len(s.kids))
	for i, k := range s.kids {
		kids[i] = k.oracle(shift, clip)
	}
	if s.op == opInterleave {
		return oracleInterleave(kids...)
	}
	return oracleConcat(kids...)
}

// fuzzCap bounds how much of a generated stream is compared; nested
// repeats and tiles can make it long.
const fuzzCap = 1 << 14

// FuzzCompose grows random nested programs — sweeps with any stride, random
// and block-permuted leaves, Concat, Interleave of composites, Repeat, and
// Tile with a shorter last tile, nested up to three deep — and checks the
// cursor against the frozen closure combinators: it yields exactly the
// oracle's stream, a reset part-way through replays it exactly, an
// exhausted cursor stays exhausted, a pushed reference comes next with
// the stream resuming after it, and the program's binary encoding decodes
// to a program yielding the same stream. Run with
// `go test -fuzz FuzzCompose`; `make ci` gives it a 10 s smoke.
func FuzzCompose(f *testing.F) {
	f.Add([]byte{3, 0, 3, 0, 0, 16, 1, 1, 1, 5, 8, 20, 2, 0, 9, 33, 3}, int64(0), uint64(1))
	f.Add([]byte{6, 1, 50, 16, 5, 0, 2, 3, 0, 0, 16, 1, 0, 1, 100, 16, 1}, int64(100), uint64(7))
	f.Add([]byte{4, 0, 3, 0, 4, 0, 7, 1, 1, 1, 2, 5, 9, 30, 0, 0, 0, 2, 1, 9, 9}, int64(5), uint64(42))
	f.Add([]byte{6, 0, 77, 13, 6, 1, 40, 7, 3, 0, 2, 0, 2, 0, 20, 3, 2, 1, 0, 64, 1}, int64(1<<20), uint64(99))

	f.Fuzz(func(t *testing.T, shape []byte, start int64, seed uint64) {
		g := &fuzzProgram{shape: shape, start: memory.PageNum(start % (1 << 40)), seed: seed}
		s := g.gen(0)
		var b Builder
		p := b.Program(s.node(&b))
		want := oracleCollect(s.oracle(0, 0), fuzzCap)

		c := p.Open()
		got := Collect(c, fuzzCap)
		if len(got) != len(want) {
			t.Fatalf("cursor yielded %d refs, oracle %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cursor diverges from the oracle at ref %d: %+v vs %+v", i, got[i], want[i])
			}
		}
		if len(want) < fuzzCap {
			for i := 0; i < 3; i++ {
				if _, ok := c.Next(); ok {
					t.Fatal("cursor yielded a reference after exhaustion")
				}
			}
		}

		// A reset part-way through replays the stream from its start.
		at := len(want) / 2
		c.Reset(p)
		collectN(c, at)
		c.Reset(p)
		again := Collect(c, fuzzCap)
		if len(again) != len(want) {
			t.Fatalf("reset cursor yielded %d refs, oracle %d", len(again), len(want))
		}
		for i, r := range again {
			if r != want[i] {
				t.Fatalf("reset cursor diverges at ref %d: %+v vs %+v", i, r, want[i])
			}
		}

		// A pushed reference comes next, then the stream resumes.
		c.Reset(p)
		collectN(c, at)
		pushed := Ref{Page: -1, Compute: 3, Write: true}
		c.Push(pushed)
		if r, ok := c.Next(); !ok || r != pushed {
			t.Fatalf("after a push Next gave %+v, %v", r, ok)
		}
		for i, r := range Collect(c, fuzzCap-at) {
			if r != want[at+i] {
				t.Fatalf("stream after a push diverges at ref %d: %+v vs %+v", at+i, r, want[at+i])
			}
		}

		// The decoded encoding yields the same stream.
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Program
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatalf("decoding an encoded program: %v", err)
		}
		got = Collect(decoded.Open(), fuzzCap)
		if len(got) != len(want) {
			t.Fatalf("decoded program yielded %d refs, oracle %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("decoded program diverges at ref %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzProgramDecode feeds arbitrary bytes to Program.UnmarshalBinary, which
// must never panic, and checks that whatever it accepts encodes back to
// the same bytes. The seeds are the encodings of FuzzCompose's seed
// programs. Run with `go test -fuzz FuzzProgramDecode`; `make ci` gives it
// a 10 s smoke.
func FuzzProgramDecode(f *testing.F) {
	for _, shape := range [][]byte{
		{3, 0, 3, 0, 0, 16, 1, 1, 1, 5, 8, 20, 2, 0, 9, 33, 3},
		{6, 1, 50, 16, 5, 0, 2, 3, 0, 0, 16, 1, 0, 1, 100, 16, 1},
		{4, 0, 3, 0, 4, 0, 7, 1, 1, 1, 2, 5, 9, 30, 0, 0, 0, 2, 1, 9, 9},
	} {
		s := (&fuzzProgram{shape: shape, seed: 1}).gen(0)
		var b Builder
		data, err := b.Program(s.node(&b)).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Program
		if p.UnmarshalBinary(data) != nil {
			return
		}
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("re-encoding gave %x, decoded from %x", again, data)
		}
	})
}
