package infod

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// rig pairs two daemons updating once a second, as the migration
// experiments run them.
func rig() (*sim.Engine, *Daemon, *Daemon, *netmodel.Link) {
	eng := sim.New()
	a := cluster.NewNode(eng, "a", 1)
	b := cluster.NewNode(eng, "b", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), a.NIC, b.NIC)
	da := New(simtime.Second, a, link, 1)
	db := New(simtime.Second, b, link, 2)
	return eng, da, db, link
}

func TestInitialRTTPrior(t *testing.T) {
	_, da, _, link := rig()
	want := 2*SchedDelay + link.RTT()
	if da.RTT() != want {
		t.Fatalf("prior RTT = %v, want %v", da.RTT(), want)
	}
}

func TestRTTConvergesOnIdleLink(t *testing.T) {
	eng, da, db, _ := rig()
	prior := da.RTT()
	da.Start()
	db.Start()
	eng.Run(simtime.Time(60 * simtime.Second))
	da.Stop()
	db.Stop()
	eng.RunAll()

	if da.RTT() == prior {
		t.Fatal("no ack sample folded into the prior")
	}
	// Both daemons update about once a second and ack each other's
	// updates, so a receives ≈60 updates plus ≈60 acks in 60 s.
	if got := da.node.NIC.Counters.RxMsgs; got < 100 {
		t.Fatalf("a received %d daemon messages in 60 s, want ≈120", got)
	}
	// Idle-link daemon RTT ≈ two scheduling delays (SchedDelay ± Jitter
	// each) plus the wire; the EWMA should sit between the shortest pair of
	// delays and the longest pair plus a 2 ms allowance for the wire.
	lo := simtime.Duration(2 * (1 - Jitter) * float64(SchedDelay))
	hi := simtime.Duration(2*(1+Jitter)*float64(SchedDelay)) + 2*simtime.Millisecond
	if got := da.RTT(); got < lo || got > hi {
		t.Fatalf("converged RTT = %v, want in [%v, %v]", got, lo, hi)
	}
}

// TestRTTInflatesUnderLoad: daemon acks queue behind bulk page traffic, so
// the RTT estimate grows on a busy link — the mechanism that makes AMPoM
// "prefetch more aggressively when the network is busy" (§1).
func TestRTTInflatesUnderLoad(t *testing.T) {
	measure := func(busy bool) simtime.Duration {
		eng := sim.New()
		a := cluster.NewNode(eng, "a", 1)
		b := cluster.NewNode(eng, "b", 1)
		link := netmodel.NewLink(eng, netmodel.FastEthernet(), a.NIC, b.NIC)
		da := New(simtime.Second, a, link, 1)
		db := New(simtime.Second, b, link, 2)
		a.Handle(func(p any) bool { _, ok := p.(string); return ok })
		b.Handle(func(p any) bool { _, ok := p.(string); return ok })
		da.Start()
		db.Start()
		if busy {
			// 100 KB bursts every 20 ms in both directions ≈ 9 ms of
			// queueing in front of every daemon message.
			sim.NewTicker(eng, 20*simtime.Millisecond, func() {
				link.Send(a.NIC, netmodel.Message{Size: 100 << 10, Payload: "bulk"})
				link.Send(b.NIC, netmodel.Message{Size: 100 << 10, Payload: "bulk"})
			})
		}
		eng.Run(simtime.Time(30 * simtime.Second))
		da.Stop()
		db.Stop()
		eng.Stop()
		return da.RTT()
	}
	idle, busy := measure(false), measure(true)
	if busy <= idle {
		t.Fatalf("busy RTT %v <= idle RTT %v; queueing must inflate the estimate", busy, idle)
	}
}

func TestBandwidthFloorWhenIdle(t *testing.T) {
	_, da, _, link := rig()
	bw := da.Bandwidth()
	want := BandwidthFloorFrac * link.Profile().BandwidthBps
	if bw != want {
		t.Fatalf("idle bandwidth = %v, want floor %v", bw, want)
	}
}

func TestBandwidthTracksTraffic(t *testing.T) {
	eng := sim.New()
	a := cluster.NewNode(eng, "a", 1)
	b := cluster.NewNode(eng, "b", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), a.NIC, b.NIC)
	da := New(simtime.Second, a, link, 1)
	b.Handle(func(any) bool { return true }) // sink for bulk payloads

	da.Bandwidth() // snapshot counters at t=0
	// Push ~nominal bandwidth of traffic for 2 s.
	nominal := link.Profile().BandwidthBps
	chunk := int64(nominal / 100)
	sim.NewTicker(eng, 10*simtime.Millisecond, func() {
		if eng.Now() < simtime.Time(2*simtime.Second) {
			link.Send(a.NIC, netmodel.Message{Size: chunk, Payload: "bulk"})
		}
	})
	eng.Run(simtime.Time(2 * simtime.Second))
	got := da.Bandwidth()
	if got < 0.8*nominal {
		t.Fatalf("busy bandwidth estimate = %v, want ≈%v", got, nominal)
	}
}

func TestEstimatesShape(t *testing.T) {
	_, da, _, _ := rig()
	est := da.Estimates()
	if est.RTT != da.RTT() {
		t.Fatal("estimate RTT mismatch")
	}
	if est.PageTransfer <= 0 {
		t.Fatal("page transfer estimate must be positive")
	}
	// td at the floored bandwidth: (4096+64) / (0.25·11.36e6) ≈ 1.46 ms.
	if est.PageTransfer > 3*simtime.Millisecond {
		t.Fatalf("td = %v implausible", est.PageTransfer)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	eng, da, _, _ := rig()
	da.Start()
	da.Start() // second start is a no-op
	da.Stop()
	da.Stop()
	eng.RunAll()
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after stop", eng.Pending())
	}
}

func TestDeterministicRTT(t *testing.T) {
	run := func() simtime.Duration {
		eng, da, db, _ := rig()
		da.Start()
		db.Start()
		eng.Run(simtime.Time(20 * simtime.Second))
		da.Stop()
		db.Stop()
		eng.RunAll()
		return da.RTT()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}
