package cluster

import (
	"testing"

	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

func TestDispatchOrder(t *testing.T) {
	eng := sim.New()
	n := NewNode(eng, "n", 1)
	var got []string
	n.Handle(func(p any) bool {
		if _, ok := p.(int); ok {
			got = append(got, "int")
			return true
		}
		return false
	})
	n.Handle(func(p any) bool {
		if _, ok := p.(string); ok {
			got = append(got, "string")
			return true
		}
		return false
	})
	peer := NewNode(eng, "peer", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), n.NIC, peer.NIC)
	link.Send(peer.NIC, netmodel.Message{Size: 1, Payload: 7})
	link.Send(peer.NIC, netmodel.Message{Size: 1, Payload: "hi"})
	eng.RunAll()
	if len(got) != 2 || got[0] != "int" || got[1] != "string" {
		t.Fatalf("dispatch = %v", got)
	}
}

func TestUnhandledPayloadPanics(t *testing.T) {
	eng := sim.New()
	n := NewNode(eng, "n", 1)
	peer := NewNode(eng, "peer", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), n.NIC, peer.NIC)
	link.Send(peer.NIC, netmodel.Message{Size: 1, Payload: 3.14})
	defer func() {
		if recover() == nil {
			t.Fatal("unhandled payload did not panic")
		}
	}()
	eng.RunAll()
}

func TestScale(t *testing.T) {
	eng := sim.New()
	fast := NewNode(eng, "fast", 2)
	if got := fast.Scale(10 * simtime.Second); got != 5*simtime.Second {
		t.Fatalf("2x node scaled 10s to %v", got)
	}
	ref := NewNode(eng, "ref", 1)
	if got := ref.Scale(10 * simtime.Second); got != 10*simtime.Second {
		t.Fatalf("reference node scaled 10s to %v", got)
	}
	degenerate := NewNode(eng, "d", 0) // clamped to 1
	if got := degenerate.Scale(simtime.Second); got != simtime.Second {
		t.Fatalf("zero-scale node scaled 1s to %v", got)
	}
}
