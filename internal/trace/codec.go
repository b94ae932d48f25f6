package trace

import (
	"encoding/binary"
	"fmt"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// recordSize is the width of one node's record in a program's binary
// encoding: the op and write flag (one byte each), the composite's first
// child (4 bytes), then the start page, count, arg, compute and seed (8
// bytes each), all little-endian.
const recordSize = 46

// MarshalBinary encodes the program as one record per node, its node slice
// in order and the root last. Gob sends a Program this way.
func (p Program) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, (len(p.nodes)+1)*recordSize)
	for _, n := range p.nodes {
		buf = n.appendRecord(buf)
	}
	return p.root.appendRecord(buf), nil
}

func (n Node) appendRecord(b []byte) []byte {
	var write byte
	if n.write {
		write = 1
	}
	b = binary.LittleEndian.AppendUint32(append(b, byte(n.op), write), uint32(n.kids))
	for _, v := range [...]uint64{uint64(n.start), uint64(n.count), uint64(n.arg), uint64(n.compute), n.seed} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// UnmarshalBinary decodes a program MarshalBinary encoded. The bytes may
// come from outside the program, so every record is checked before the
// program is replaced: the op is a known one and the write flag 0 or 1,
// counts are not negative, a random leaf's span and a block-permuted
// leaf's or Tile's block length are at least 1, and a composite's children
// lie strictly before it, which makes the program acyclic, and belong to
// no other composite, which bounds a cursor's state by the program's size
// (a Builder's programs are such trees). Only the records the input holds
// are allocated.
func (p *Program) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || len(data)%recordSize != 0 {
		return fmt.Errorf("trace: a %d-byte program encoding is not a whole number of %d-byte node records", len(data), recordSize)
	}
	nodes := make([]Node, len(data)/recordSize)
	owned := make([]bool, len(nodes))
	le := binary.LittleEndian
	for i := range nodes {
		r := data[i*recordSize:]
		n := Node{
			op: op(r[0]), write: r[1] == 1, kids: int32(le.Uint32(r[2:])),
			start: memory.PageNum(le.Uint64(r[6:])), count: int64(le.Uint64(r[14:])), arg: int64(le.Uint64(r[22:])),
			compute: simtime.Duration(le.Uint64(r[30:])), seed: le.Uint64(r[38:]),
		}
		kids, span := int64(n.kids), int64(1) // Repeat and Tile have one child
		if n.op == opConcat || n.op == opInterleave {
			span = n.count
		}
		switch {
		case n.op < opStrided || n.op > opTile || r[1] > 1:
			return fmt.Errorf("trace: node %d has op %d and write flag %d", i, n.op, r[1])
		case n.count < 0 || n.arg < 1 && (n.op == opRandom || n.op == opBlocked || n.op == opTile):
			return fmt.Errorf("trace: node %d has count %d and span or block length %d", i, n.count, n.arg)
		case n.op >= opConcat && (kids < 0 || span > int64(i)-kids):
			return fmt.Errorf("trace: node %d's %d children at %d do not lie before it", i, span, kids)
		}
		for k := kids; n.op >= opConcat && k < kids+span; k++ {
			if owned[k] {
				return fmt.Errorf("trace: node %d is a child of two composites", k)
			}
			owned[k] = true
		}
		nodes[i] = n
	}
	last := len(nodes) - 1
	*p = Program{nodes: nodes[:last], root: nodes[last]}
	return nil
}
