package migrate

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/hpcc"
	"ampom/internal/memory"
	"ampom/internal/sim"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// consumeMap is the map-based window the pre-copy rounds used before the
// page set: the model consume's dirty count and stream end are checked
// against.
func consumeMap(ws *windowedStream, budget simtime.Duration) (dirtied int64, ended bool) {
	written := make(map[memory.PageNum]bool)
	var used simtime.Duration
	for used < budget {
		var ref trace.Ref
		if ws.hasPend {
			ref = ws.pending
			ws.hasPend = false
		} else {
			var ok bool
			ref, ok = ws.src.Next()
			if !ok {
				return int64(len(written)), true
			}
			ref.Compute = ws.node.Scale(ref.Compute)
		}
		if used+ref.Compute > budget {
			ref.Compute -= budget - used
			ws.pending = ref
			ws.hasPend = true
			return int64(len(written)), false
		}
		used += ref.Compute
		if ref.Write {
			written[ref.Page] = true
		}
	}
	return int64(len(written)), false
}

// TestWindowDirtyCount walks each kernel's stream window by window, once
// through consume and once through the map-based model over a second
// cursor of the same program, on a node of CPU scale 1.5 so references
// split at the window boundaries. Every window's dirty count and stream
// end must agree.
func TestWindowDirtyCount(t *testing.T) {
	for _, k := range hpcc.Kernels() {
		w, err := hpcc.Build(hpcc.Scaled(hpcc.Largest(k), 64), 5)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		node := cluster.NewNode(eng, "origin", 1.5)
		ws := &windowedStream{src: w.Source.Open(), node: node, written: memory.NewPageSet(w.Layout.Pages())}
		model := &windowedStream{src: w.Source.Open(), node: node}
		budget := w.BaseCompute / 37
		dirtySeen := false
		for i := 0; ; i++ {
			got, gotEnd := ws.consume(budget)
			want, wantEnd := consumeMap(model, budget)
			if got != want || gotEnd != wantEnd {
				t.Fatalf("%s window %d: dirtied %d, ended %v; model %d, %v", w.Name, i, got, gotEnd, want, wantEnd)
			}
			dirtySeen = dirtySeen || got > 0
			if gotEnd {
				break
			}
		}
		if !dirtySeen {
			t.Fatalf("%s: no window dirtied a page", w.Name)
		}
	}
}

// TestWindowAllocFree: once precopy has sized the window's page set, a
// pre-copy window allocates nothing.
func TestWindowAllocFree(t *testing.T) {
	w, err := hpcc.Build(hpcc.Scaled(hpcc.Largest(hpcc.RandomAccess), 64), 5)
	if err != nil {
		t.Fatal(err)
	}
	ws := &windowedStream{src: w.Source.Open(), node: cluster.NewNode(sim.New(), "origin", 1)}
	ws.written = memory.NewPageSet(w.Layout.Pages())
	budget := w.BaseCompute / 1000
	if n := testing.AllocsPerRun(100, func() {
		if _, ended := ws.consume(budget); ended {
			t.Fatal("stream ended inside the measured windows")
		}
	}); n != 0 {
		t.Fatalf("a pre-copy window allocates %v times", n)
	}
}
