package infod

import (
	"fmt"
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
	da, db := pairOn(a, b, link)
	return eng, da, db, link
}

// pairOn pairs a daemon on a (seed 1) with one on b (seed 2) across link,
// updating once a second, and registers Route on both nodes.
func pairOn(a, b *cluster.Node, link *netmodel.Link) (*Daemon, *Daemon) {
	da := New(simtime.Second, a, link, 1)
	db := New(simtime.Second, b, link, 2)
	Pair(da, db)
	a.Handle(Route)
	b.Handle(Route)
	return da, db
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
	if got := da.node.NIC.Counters.RxBytes / MsgBytes; got < 100 {
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
		da, db := pairOn(a, b, link)
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

// TestPairedDaemonAllocFree: once both daemons have a record and the
// engine's queue and the link's rings have grown, a period of updates and
// acks in both directions allocates nothing.
func TestPairedDaemonAllocFree(t *testing.T) {
	eng, da, db, _ := rig()
	da.Start()
	db.Start()
	eng.Run(simtime.Time(10 * simtime.Second))
	if n := testing.AllocsPerRun(50, func() {
		eng.Run(eng.Now().Add(simtime.Second))
	}); n != 0 {
		t.Fatalf("a paired-daemon period allocates %v times", n)
	}
	if !da.haveRTT || !db.haveRTT {
		t.Fatal("no ack sampled")
	}
}

// TestHubDaemonsAckOnlyTheirPeers: a hub runs one daemon per spoke on
// three spokes, over links slow enough that several exchanges are in
// flight at once. Every exchange comes back to the daemon that sent it,
// acked by that daemon's own peer, and no daemon holds more records than
// it ever had in flight.
func TestHubDaemonsAckOnlyTheirPeers(t *testing.T) {
	const spokes, periods = 3, 60
	eng := sim.New()
	hub := cluster.NewNode(eng, "hub", 1)
	p := netmodel.Profile{BandwidthBps: 1e6, LatencyOneWay: 2500 * simtime.Millisecond}
	var all []*Daemon
	acks := map[*Daemon]int{} // acks delivered to each daemon's node
	spy := func(p any) bool {
		if x, ok := p.(*exchange); ok && x.ack {
			acks[x.from.peer]++
		}
		return false
	}
	hub.Handle(spy)
	hub.Handle(Route)
	for i := 0; i < spokes; i++ {
		node := cluster.NewNode(eng, "spoke", 1)
		node.Handle(spy)
		node.Handle(Route)
		link := netmodel.NewLink(eng, p, hub.NIC, node.NIC)
		h := New(simtime.Second, hub, link, uint64(2*i+1))
		s := New(simtime.Second, node, link, uint64(2*i+2))
		Pair(h, s)
		all = append(all, h, s)
	}
	for _, d := range all {
		d.Start()
	}
	// A daemon's in-flight count rises only at its ticks (instants k·period),
	// and is at most k minus the acks it received before that instant.
	highWater := map[*Daemon]int{}
	for k := 1; k <= periods; k++ {
		tick := simtime.Time(simtime.Duration(k) * simtime.Second)
		eng.Run(tick - 1)
		for _, d := range all {
			highWater[d] = max(highWater[d], k-acks[d])
		}
		eng.Run(tick)
	}
	for _, d := range all {
		d.Stop()
	}
	eng.RunAll()

	for i, d := range all {
		if acks[d] != periods {
			t.Fatalf("daemon %d received %d acks, want %d", i, acks[d], periods)
		}
		if len(d.free) > highWater[d] || highWater[d] < 5 {
			t.Fatalf("daemon %d holds %d records, in-flight high-water %d (want ≥ 5)", i, len(d.free), highWater[d])
		}
		for _, x := range d.free {
			if !x.ack || x.from != d.peer {
				t.Fatalf("daemon %d holds a record last sent by %p, want its peer %p", i, x.from, d.peer)
			}
		}
	}
}

// TestUnpairedExchangePanics: an update from a daemon that was never
// paired has no receiver, and Route says so by name instead of
// dereferencing the missing peer.
func TestUnpairedExchangePanics(t *testing.T) {
	eng := sim.New()
	a := cluster.NewNode(eng, "a", 1)
	b := cluster.NewNode(eng, "b", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), a.NIC, b.NIC)
	da := New(simtime.Second, a, link, 1)
	a.Handle(Route)
	b.Handle(Route)
	da.Start()
	got := func() (r any) {
		defer func() { r = recover() }()
		eng.Run(simtime.Time(3 * simtime.Second))
		return nil
	}()
	if msg, want := fmt.Sprint(got), `infod: exchange from an unpaired daemon on node "a"`; msg != want {
		t.Fatalf("delivering an unpaired daemon's update panicked with %q, want %q", msg, want)
	}
}
