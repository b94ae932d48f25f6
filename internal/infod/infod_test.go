package infod

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

func rig(cfg Config) (*sim.Engine, *Daemon, *Daemon, *netmodel.Link) {
	eng := sim.New()
	a := cluster.NewNode(eng, "a", 1)
	b := cluster.NewNode(eng, "b", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), a.NIC, b.NIC)
	da := New(cfg, a, link, 1)
	db := New(cfg, b, link, 2)
	return eng, da, db, link
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.UpdatePeriod != simtime.Second || c.SchedDelay != 6*simtime.Millisecond ||
		c.Alpha != 0.1 || c.BandwidthFloorFrac != 0.25 || c.MsgBytes != 192 || c.Jitter != 0.5 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestInitialRTTPrior(t *testing.T) {
	_, da, _, link := rig(Config{})
	want := 2*6*simtime.Millisecond + link.RTT()
	if da.RTT() != want {
		t.Fatalf("prior RTT = %v, want %v", da.RTT(), want)
	}
}

func TestRTTConvergesOnIdleLink(t *testing.T) {
	eng, da, db, _ := rig(Config{})
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
	// Idle-link daemon RTT ≈ two scheduling delays (6 ms ± 50 % each) plus
	// the wire; the EWMA should sit in [6 ms, 20 ms].
	got := da.RTT()
	if got < 6*simtime.Millisecond || got > 20*simtime.Millisecond {
		t.Fatalf("converged RTT = %v, want ≈12ms", got)
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
		da := New(Config{}, a, link, 1)
		db := New(Config{}, b, link, 2)
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
	_, da, _, link := rig(Config{})
	bw := da.Bandwidth()
	want := 0.25 * link.Profile().BandwidthBps
	if bw != want {
		t.Fatalf("idle bandwidth = %v, want floor %v", bw, want)
	}
}

func TestBandwidthTracksTraffic(t *testing.T) {
	eng := sim.New()
	a := cluster.NewNode(eng, "a", 1)
	b := cluster.NewNode(eng, "b", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), a.NIC, b.NIC)
	da := New(Config{}, a, link, 1)
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
	_, da, _, _ := rig(Config{})
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
	eng, da, _, _ := rig(Config{})
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
		eng, da, db, _ := rig(Config{})
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
