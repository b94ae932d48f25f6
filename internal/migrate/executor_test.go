package migrate

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/sim"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// TestExecutorRejectsSecondPendingFault: the executor holds one fault's
// page, demand and zone, so scheduling a second fault while the first is
// pending must panic instead of overwriting it.
func TestExecutorRejectsSecondPendingFault(t *testing.T) {
	eng := sim.New()
	layout, err := memory.NewLayout(1, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	as := memory.NewAddressSpace(layout)
	for pg := range memory.PageNum(layout.Pages()) {
		as.SetState(pg, memory.StateRemote)
	}
	e := &executor{
		node: cluster.NewNode(eng, "dest", 1),
		src:  trace.Sequential(0, layout.Pages(), simtime.Microsecond, false)(),
		as:   as,
		res:  &Result{},
	}
	e.start(func(simtime.Time) {})
	if !e.faulting || e.page != 0 {
		t.Fatalf("start left faulting=%v on page %d, want a pending fault on page 0", e.faulting, e.page)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second fault scheduled while one is pending did not panic")
		}
	}()
	e.step()
}
