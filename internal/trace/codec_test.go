package trace

import (
	"strings"
	"testing"
)

// records encodes nodes as a program's records, the last one the root.
func records(nodes ...Node) []byte {
	var b []byte
	for _, n := range nodes {
		b = n.appendRecord(b)
	}
	return b
}

// TestProgramDecodeRejects: the decoder refuses every malformed encoding
// with an error and leaves the program it decodes into as it was.
func TestProgramDecodeRejects(t *testing.T) {
	leaf := Sequential(0, 4, 0, false)
	repeatOf := func(kids int32) Node { return Node{op: opRepeat, kids: kids, count: 2} }
	badWrite := records(leaf)
	badWrite[1] = 2
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "whole number", nil},
		{"partial record", "whole number", records(leaf)[:recordSize-1]},
		{"trailing byte", "whole number", append(records(leaf), 0)},
		{"op 0", "op 0", records(Node{})},
		{"op past Tile", "op 8", records(Node{op: opTile + 1})},
		{"write flag 2", "write flag", badWrite},
		{"negative count", "count -1", records(Sequential(0, -1, 0, false))},
		{"negative repeat", "count -1", records(leaf, Node{op: opRepeat, count: -1})},
		{"zero random span", "block length 0", records(RandomUniform(0, 0, 5, 0, false, 1))},
		{"zero block", "block length 0", records(Node{op: opBlocked, count: 4})},
		{"zero tile block", "block length 0", records(leaf, Node{op: opTile, count: 8})},
		{"root's child past the slice", "lie before", records(leaf, repeatOf(1))},
		{"negative child", "lie before", records(leaf, repeatOf(-1))},
		{"child at itself", "lie before", records(leaf, repeatOf(1), repeatOf(1))},
		{"concat past the slice", "lie before", records(leaf, Node{op: opConcat, count: 2})},
		{"huge concat", "lie before", records(leaf, Node{op: opConcat, count: 1 << 62})},
		{"shared child", "two composites", records(leaf, repeatOf(0), Node{op: opConcat, kids: 0, count: 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := leaf.Program()
			err := p.UnmarshalBinary(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.want)
			}
			if len(Collect(p.Open(), 0)) != 4 {
				t.Fatal("a rejected encoding changed the program")
			}
		})
	}
}
