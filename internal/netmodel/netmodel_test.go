package netmodel

import (
	"testing"
	"testing/quick"

	"ampom/internal/sim"
	"ampom/internal/simtime"
)

func testLink(p Profile) (*sim.Engine, *Link, *NIC, *NIC, *[]simtime.Time) {
	eng := sim.New()
	var arrivals []simtime.Time
	a := NewNIC(nil)
	b := NewNIC(nil)
	l := NewLink(eng, p, a, b)
	b.SetHandler(func(m Message) { arrivals = append(arrivals, eng.Now()) })
	a.SetHandler(func(m Message) { arrivals = append(arrivals, eng.Now()) })
	return eng, l, a, b, &arrivals
}

func TestTransferTime(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: simtime.Millisecond}
	if got := p.TransferTime(1e6); got != simtime.Second {
		t.Fatalf("TransferTime = %v, want 1s", got)
	}
	if got := p.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v", got)
	}
	if got := p.TransferTime(-5); got != 0 {
		t.Fatalf("TransferTime(-5) = %v", got)
	}
}

func TestSingleMessageArrival(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 10 * simtime.Millisecond}
	eng, l, a, _, arrivals := testLink(p)
	l.Send(a, Message{Size: 1000}) // 1 ms serialisation
	eng.RunAll()
	want := simtime.Time(11 * simtime.Millisecond)
	if len(*arrivals) != 1 || (*arrivals)[0] != want {
		t.Fatalf("arrivals = %v, want [%v]", *arrivals, want)
	}
}

func TestFIFOSerialisation(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, _, arrivals := testLink(p)
	// Two 1000-byte messages sent back-to-back serialise sequentially.
	l.Send(a, Message{Size: 1000})
	l.Send(a, Message{Size: 1000})
	eng.RunAll()
	if len(*arrivals) != 2 {
		t.Fatalf("arrivals = %v", *arrivals)
	}
	if (*arrivals)[0] != simtime.Time(simtime.Millisecond) ||
		(*arrivals)[1] != simtime.Time(2*simtime.Millisecond) {
		t.Fatalf("arrivals = %v, want 1ms and 2ms", *arrivals)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, b, arrivals := testLink(p)
	// Saturate a→b, then send b→a: the reverse message must not queue
	// behind forward traffic (full duplex).
	l.Send(a, Message{Size: 1e6}) // 1 s serialisation
	at := l.Send(b, Message{Size: 1000})
	eng.RunAll()
	if at != simtime.Time(simtime.Millisecond) {
		t.Fatalf("reverse arrival = %v, want 1ms", at)
	}
	if len(*arrivals) != 2 {
		t.Fatalf("arrivals = %v", *arrivals)
	}
}

func TestPipelining(t *testing.T) {
	// A batch of k messages pays latency once, not k times: total time =
	// k·serialisation + 1·latency.
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 100 * simtime.Millisecond}
	eng, l, a, _, arrivals := testLink(p)
	const k = 10
	for i := 0; i < k; i++ {
		l.Send(a, Message{Size: 1000})
	}
	eng.RunAll()
	last := (*arrivals)[len(*arrivals)-1]
	want := simtime.Time(simtime.Duration(k)*simtime.Millisecond + 100*simtime.Millisecond)
	if last != want {
		t.Fatalf("last arrival = %v, want %v", last, want)
	}
}

func TestIdleLinkResetsHorizon(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, _, arrivals := testLink(p)
	l.Send(a, Message{Size: 1000})
	// After ~10 s of idleness a new message starts serialising at send
	// time, not at the old busy horizon.
	eng.At(simtime.Time(10*simtime.Second), func() { l.Send(a, Message{Size: 1000}) })
	eng.RunAll()
	want := simtime.Time(10*simtime.Second + simtime.Millisecond)
	if got := (*arrivals)[1]; got != want {
		t.Fatalf("second arrival = %v, want %v", got, want)
	}
}

func TestCounters(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, b, arrivals := testLink(p)
	l.Send(a, Message{Size: 500})
	l.Send(a, Message{Size: 700})
	l.Send(b, Message{Size: 300})
	eng.RunAll()
	if a.Counters.TxBytes != 1200 {
		t.Fatalf("a tx = %+v", a.Counters)
	}
	if b.Counters.RxBytes != 1200 {
		t.Fatalf("b rx = %+v", b.Counters)
	}
	if b.Counters.TxBytes != 300 || a.Counters.RxBytes != 300 {
		t.Fatalf("reverse counters wrong: a=%+v b=%+v", a.Counters, b.Counters)
	}
	if len(*arrivals) != 3 {
		t.Fatalf("delivered = %d", len(*arrivals))
	}
}

// TestQueueDelay: with no wire latency, an empty probe message arrives
// when its direction's queue drains — at once on an idle link, after the
// 2 s message it queues behind, and at once in the idle reverse direction.
func TestQueueDelay(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, b, _ := testLink(p)
	if at := l.Send(a, Message{}); at != 0 {
		t.Fatalf("idle link delivers a probe at %v", at)
	}
	l.Send(a, Message{Size: 2e6}) // 2 s
	if at := l.Send(a, Message{}); at != simtime.Time(2*simtime.Second) {
		t.Fatalf("probe queued behind 2 s arrives at %v, want 2s", at)
	}
	if at := l.Send(b, Message{}); at != 0 {
		t.Fatalf("reverse probe arrives at %v, want 0", at)
	}
	eng.RunAll()
}

func TestBackgroundLoadSlowsTransfer(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, _, arrivals := testLink(p)
	l.SetBackgroundLoad(0.5)
	l.Send(a, Message{Size: 1000}) // at 50% load: 2 ms
	eng.RunAll()
	if got := (*arrivals)[0]; got != simtime.Time(2*simtime.Millisecond) {
		t.Fatalf("arrival = %v, want 2ms", got)
	}
}

func TestBackgroundLoadClamped(t *testing.T) {
	_, l, _, _, _ := testLink(Profile{BandwidthBps: 1e6})
	l.SetBackgroundLoad(2.0)
	if bw := l.effectiveBandwidth(); bw < 0.04e6 || bw > 0.06e6 {
		t.Fatalf("effective bandwidth = %v, want 5%% of nominal", bw)
	}
	l.SetBackgroundLoad(-1)
	if bw := l.effectiveBandwidth(); bw != 1e6 {
		t.Fatalf("effective bandwidth = %v, want nominal", bw)
	}
}

func TestSendFromForeignNICPanics(t *testing.T) {
	_, l, _, _, _ := testLink(Profile{BandwidthBps: 1e6})
	defer func() {
		if recover() == nil {
			t.Fatal("send from unattached NIC did not panic")
		}
	}()
	l.Send(NewNIC(nil), Message{Size: 1})
}

func TestShape(t *testing.T) {
	p := Shape(FastEthernet(), 6e6, 2*simtime.Millisecond)
	if p.BandwidthBps != 0.75e6 {
		t.Fatalf("shaped bandwidth = %v, want 750000", p.BandwidthBps)
	}
	if p.LatencyOneWay != 2*simtime.Millisecond {
		t.Fatalf("shaped latency = %v", p.LatencyOneWay)
	}
}

func TestBroadbandProfile(t *testing.T) {
	p := Broadband()
	if p.BandwidthBps != 0.75e6 || p.LatencyOneWay != 2*simtime.Millisecond {
		t.Fatalf("broadband profile = %+v", p)
	}
}

func TestRTT(t *testing.T) {
	_, l, _, _, _ := testLink(Profile{BandwidthBps: 1e6, LatencyOneWay: 3 * simtime.Millisecond})
	if got := l.RTT(); got != 6*simtime.Millisecond {
		t.Fatalf("RTT = %v, want 6ms", got)
	}
}

// TestArrivalMonotonicProperty: for any sequence of sends in one direction,
// arrivals are strictly ordered and conservation holds (every byte sent is
// received).
func TestArrivalMonotonicProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := Profile{BandwidthBps: 1e5, LatencyOneWay: simtime.Millisecond}
		eng, l, a, b, arrivals := testLink(p)
		var sent int64
		for _, s := range sizes {
			size := int64(s%5000) + 1
			sent += size
			l.Send(a, Message{Size: size})
		}
		eng.RunAll()
		if len(*arrivals) != len(sizes) {
			return false
		}
		for i := 1; i < len(*arrivals); i++ {
			if (*arrivals)[i] <= (*arrivals)[i-1] {
				return false
			}
		}
		return b.Counters.RxBytes == sent && a.Counters.TxBytes == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryRouterClaimsScheduling(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 10 * simtime.Millisecond}
	eng, l, a, b, arrivals := testLink(p)
	var claimed []simtime.Time
	var claimedFns []func()
	l.SetDeliveryRouter(func(to *NIC, m Message, at simtime.Time, deliver func()) bool {
		if to != b {
			return false
		}
		claimed = append(claimed, at)
		claimedFns = append(claimedFns, deliver)
		return true
	})

	// b-ward delivery is claimed: the link schedules nothing itself.
	arrival := l.Send(a, Message{Size: 1000})
	if want := simtime.Time(11 * simtime.Millisecond); arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
	eng.RunAll()
	if len(*arrivals) != 0 || len(claimed) != 1 || claimed[0] != arrival {
		t.Fatalf("claimed = %v, arrivals = %v, want claim at %v and no delivery", claimed, *arrivals, arrival)
	}
	// Running the captured deliver performs the full bookkeeping.
	claimedFns[0]()
	if b.Counters.RxBytes != 1000 || len(*arrivals) != 1 {
		t.Fatalf("deliver closure: RxBytes=%d arrivals=%v", b.Counters.RxBytes, *arrivals)
	}

	// a-ward deliveries are declined by this router and flow normally.
	l.Send(b, Message{Size: 1000})
	eng.RunAll()
	if len(*arrivals) != 2 || len(claimed) != 1 {
		t.Fatalf("declined direction: arrivals=%v claimed=%v", *arrivals, claimed)
	}

	// Removing the router restores sequential behaviour.
	l.SetDeliveryRouter(nil)
	l.Send(a, Message{Size: 1000})
	eng.RunAll()
	if len(*arrivals) != 3 {
		t.Fatalf("after router removal: arrivals=%v", *arrivals)
	}
}

func TestQuietNICSuppressesCounters(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 0}
	eng, l, a, b, arrivals := testLink(p)
	a.Quiet, b.Quiet = true, true
	l.Send(a, Message{Size: 1000})
	eng.RunAll()
	if len(*arrivals) != 1 {
		t.Fatalf("quiet NICs must still deliver: arrivals=%v", *arrivals)
	}
	if a.Counters != (Counters{}) || b.Counters != (Counters{}) {
		t.Fatalf("quiet NICs recorded counters: a=%+v b=%+v", a.Counters, b.Counters)
	}
}
