package netmodel

import (
	"slices"
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

// TestDeliveryRouterClaimsScheduling: a router claims some deliveries of
// one direction and declines others; the declined ones still arrive in
// send order through the link's own ring, and a claimed one arrives only
// when the router calls Receive.
func TestDeliveryRouterClaimsScheduling(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: 10 * simtime.Millisecond}
	eng, l, a, b, _ := testLink(p)
	var got []int
	b.SetHandler(func(m Message) { got = append(got, m.Payload.(int)) })
	a.SetHandler(func(m Message) { got = append(got, m.Payload.(int)) })
	type claim struct {
		m  Message
		at simtime.Time
	}
	var claimed []claim
	l.SetDeliveryRouter(func(to *NIC, m Message, at simtime.Time) bool {
		if to != b || m.Payload.(int)%2 == 0 {
			return false
		}
		claimed = append(claimed, claim{m, at})
		return true
	})

	// b-ward: odd payloads are claimed, even ones flow through the ring.
	var arrivals []simtime.Time
	for i := 0; i < 6; i++ {
		arrivals = append(arrivals, l.Send(a, Message{Size: 1000, Payload: i}))
	}
	if want := simtime.Time(11 * simtime.Millisecond); arrivals[0] != want {
		t.Fatalf("arrival = %v, want %v", arrivals[0], want)
	}
	eng.RunAll()
	if !slices.Equal(got, []int{0, 2, 4}) || b.Counters.RxBytes != 3000 {
		t.Fatalf("declined deliveries = %v (RxBytes %d), want [0 2 4] (3000)", got, b.Counters.RxBytes)
	}
	if len(claimed) != 3 {
		t.Fatalf("claimed %d deliveries, want 3", len(claimed))
	}
	for i, c := range claimed {
		if c.m.Payload.(int) != 2*i+1 || c.at != arrivals[2*i+1] {
			t.Fatalf("claim %d = %v at %v, want %d at %v", i, c.m.Payload, c.at, 2*i+1, arrivals[2*i+1])
		}
	}
	// Receive performs the full bookkeeping the link would have.
	got = got[:0]
	for _, c := range claimed {
		b.Receive(c.m)
	}
	if !slices.Equal(got, []int{1, 3, 5}) || b.Counters.RxBytes != 6000 {
		t.Fatalf("Receive: delivered %v, RxBytes %d", got, b.Counters.RxBytes)
	}

	// a-ward deliveries are declined by this router and flow normally.
	got = got[:0]
	l.Send(b, Message{Size: 1000, Payload: 7})
	eng.RunAll()
	if !slices.Equal(got, []int{7}) || len(claimed) != 3 {
		t.Fatalf("declined direction: delivered %v, claimed %d", got, len(claimed))
	}

	// Removing the router restores sequential behaviour.
	got = got[:0]
	l.SetDeliveryRouter(nil)
	l.Send(a, Message{Size: 1000, Payload: 9})
	eng.RunAll()
	if !slices.Equal(got, []int{9}) {
		t.Fatalf("after router removal: delivered %v", got)
	}
}

// TestRingOrderUnderGrowthAndWrap: a bulk transfer and a thousand small
// messages queue in each direction, in two waves so the ring grows while
// its head has moved on and wraps round; every direction delivers in send
// order and the byte counters balance.
func TestRingOrderUnderGrowthAndWrap(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: simtime.Millisecond}
	eng, l, a, b, _ := testLink(p)
	var toA, toB []int
	a.SetHandler(func(m Message) { toA = append(toA, m.Payload.(int)) })
	b.SetHandler(func(m Message) { toB = append(toB, m.Payload.(int)) })
	const small = 1000
	send := func(from, to int) {
		for i := from; i < to; i++ {
			l.Send(a, Message{Size: 100, Payload: i})
			l.Send(b, Message{Size: 100, Payload: i})
		}
	}
	l.Send(a, Message{Size: 1e6, Payload: -1}) // 1 s of serialisation
	l.Send(b, Message{Size: 1e6, Payload: -1})
	send(0, 300)
	// Small message i arrives at 1.001 s + (i+1)·0.1 ms, so the bulk
	// message and 95 small ones have arrived by 1.01055 s; the rest of the
	// first wave is still queued, and the second wave wraps the ring.
	eng.Run(simtime.Time(1010550 * simtime.Microsecond))
	if len(toA) != 96 || len(toB) != 96 {
		t.Fatalf("mid-run deliveries: %d a-ward, %d b-ward, want 96 each", len(toA), len(toB))
	}
	send(300, small)
	eng.RunAll()

	want := []int{-1}
	for i := 0; i < small; i++ {
		want = append(want, i)
	}
	if !slices.Equal(toA, want) || !slices.Equal(toB, want) {
		t.Fatalf("delivery order differs from send order (a-ward %d, b-ward %d messages)", len(toA), len(toB))
	}
	sent := int64(1e6 + small*100)
	for _, n := range []*NIC{a, b} {
		if n.Counters.TxBytes != sent || n.Counters.RxBytes != sent {
			t.Fatalf("counters %+v, want %d each way", n.Counters, sent)
		}
	}
	if l.ab.n != 0 || l.ba.n != 0 {
		t.Fatalf("rings not drained: %d, %d", l.ab.n, l.ba.n)
	}
}

// TestPipeChecksFIFO: a delivery whose front message is not due now is a
// broken FIFO assumption and panics rather than misdelivering.
func TestPipeChecksFIFO(t *testing.T) {
	_, l, _, _, _ := testLink(Profile{BandwidthBps: 1e6})
	for name, fire := range map[string]func(){
		"empty":   l.ab.deliver,
		"not due": func() { l.ba.push(Message{}, simtime.Time(simtime.Second)); l.ba.deliver() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: delivery did not panic", name)
				}
			}()
			fire()
		}()
	}
}

// TestLinkSteadyStateAllocFree: once a direction's ring has grown, a Send
// and its delivery allocate nothing — the link schedules the callback it
// built at creation, not a closure per message.
func TestLinkSteadyStateAllocFree(t *testing.T) {
	p := Profile{BandwidthBps: 1e6, LatencyOneWay: simtime.Millisecond}
	eng, l, a, b, _ := testLink(p)
	delivered := 0
	b.SetHandler(func(Message) { delivered++ })
	payload := &struct{}{}
	for i := 0; i < 3; i++ { // three messages stay in flight throughout
		l.Send(a, Message{Size: 1000, Payload: payload})
	}
	step := func() {
		l.Send(a, Message{Size: 1000, Payload: payload})
		at, _ := eng.NextAt()
		eng.Run(at)
	}
	for i := 0; i < 10; i++ { // grow the ring and the event queue
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a send and its delivery allocate %v times", n)
	}
	if l.ab.n != 3 || delivered != 111 {
		t.Fatalf("ring depth %d, delivered %d; want 3 and 111", l.ab.n, delivered)
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
