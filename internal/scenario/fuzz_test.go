package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// FuzzSpecRoundTrip locks the codec's two contracts: malformed input never
// panics (it errors), and any document that decodes round-trips exactly —
// decode→encode→decode is the identity and the encoding is stable. The
// seed corpus is the built-in presets (the switched-fabric ones included)
// plus minimal documents exercising the fabric block and churn kinds.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, spec := range Presets() {
		enc, err := EncodeSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 1, "skew": -0.5, "churn": [{"at": "3s", "kind": "burst", "node": 0, "procs": 2}]}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4, "oversubscription": 2}}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "flat", "gossip_fanout": 3, "gossip_period": "500ms"}}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "star"}, "load_vector_len": 7}`))
	f.Add([]byte(`{"version": 1, "churn": [{"at": "2s", "kind": "balloon", "node": 1, "factor": 8}]}`))
	// Overlapping node tiers must be rejected (slow+fast > 1 would
	// silently truncate the fast tier in buildWorkload).
	f.Add([]byte(`{"version": 1, "slow_frac": 0.7, "fast_frac": 0.7}`))
	// The failure plane: crash/recover/link churn (negative node selects a
	// rack uplink) and the evacuate knob, which requires a node-crash.
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4}, "evacuate": true, "churn": [{"at": "2s", "kind": "node-crash", "node": 1}, {"at": "4s", "kind": "node-recover", "node": 1}]}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4}, "churn": [{"at": "3s", "kind": "link-down", "node": -1}, {"at": "5s", "kind": "link-up", "node": -1}]}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "flat"}, "churn": [{"at": "1s", "kind": "link-down", "node": 2}, {"at": "2s", "kind": "link-up", "node": 2}]}`))
	// Evacuate without a crash, and failure churn on the star, must reject.
	f.Add([]byte(`{"version": 1, "evacuate": true}`))
	f.Add([]byte(`{"version": 1, "churn": [{"at": "2s", "kind": "node-crash", "node": 1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err := DecodeSpec(data)
		if err != nil {
			return // rejected, never panicking, is the contract for garbage
		}
		enc1, err := EncodeSpec(s1)
		if err != nil {
			t.Fatalf("decoded spec failed to encode: %v\nspec: %+v", err, s1)
		}
		s2, err := DecodeSpec(enc1)
		if err != nil {
			t.Fatalf("encoded spec failed to decode: %v\n%s", err, enc1)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip changed the spec:\nfirst  %+v\nsecond %+v", s1, s2)
		}
		enc2, err := EncodeSpec(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding unstable:\n%s\n---\n%s", enc1, enc2)
		}
	})
}

// FuzzFailureScript drives whole failure scenarios decoded from the fuzz
// input (failureScript) under one policy per migration mechanism: AMPoM
// (lightweight), openMosix (full copy) and the no-migration baseline
// (evacuation only). Every lifecycle transition must be legal (an illegal
// one panics), the live view must equal the rebuild at every quantum, and
// Unfinished must count exactly the processes that never completed.
func FuzzFailureScript(f *testing.F) {
	// Evacuating crash of node 1 with a recovery; a kill-in-place crash
	// plus a rack-uplink flap; a crash of a migration destination while
	// its source is down.
	f.Add([]byte{0, 1, 0, 1, 8, 1, 1, 24})
	f.Add([]byte{4, 6, 0, 0, 4, 2, 0x80, 6, 3, 0x80, 10, 1, 0, 20})
	f.Add([]byte{2, 3, 0, 0, 8, 0, 1, 9, 0, 2, 10, 1, 0, 16, 1, 1, 18, 1, 2, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, seed := failureScript(data)
		if spec.Validate() != nil {
			return
		}
		scales, tmpl := buildWorkload(spec, seed)
		for _, pol := range []sched.BalancerPolicy{sched.AMPoMPolicy, sched.OpenMosixPolicy, sched.NoMigrationPolicy} {
			c := newClusterSimShards(spec, scales, tmpl, pol, seed, 1)
			stepVerifying(t, c, pol.Name())
			st := c.run()
			verifyAggregates(t, c, pol.Name()+" end")
			left := 0
			for _, p := range c.procs {
				if p.state != procDone {
					left++
				}
			}
			if st.Unfinished != left {
				t.Fatalf("%s: Unfinished = %d, but %d processes never completed", pol.Name(), st.Unfinished, left)
			}
		}
	})
}

// failureScript decodes a fuzz input into a small two-tier failure spec and
// a workload seed. Byte 0 sizes the cluster (4–8 nodes in racks of two),
// byte 1 picks the crash response (bit 0) and the seed, and each following
// byte triple is one churn event: the kind (crash, recover, link down,
// link up), the node — with the high bit set, a link event targets a rack
// uplink instead — and the instant in quarter seconds. At most six events
// are read.
func failureScript(data []byte) (Spec, uint64) {
	var head [2]byte
	copy(head[:], data)
	nodes := 4 + int(head[0])%5
	spec := Spec{
		Name:            "fuzz-failures",
		Nodes:           nodes,
		Procs:           3 * nodes,
		Skew:            0.6,
		MeanCompute:     2 * simtime.Second,
		MeanFootprintMB: 32,
		MaxSimTime:      30 * simtime.Second,
		Evacuate:        head[1]&1 == 1,
		Fabric:          FabricSpec{Topology: fabric.KindTwoTier, RackSize: 2},
	}
	kinds := [...]ChurnKind{ChurnNodeCrash, ChurnNodeRecover, ChurnLinkDown, ChurnLinkUp}
	for i := 2; i+2 < len(data) && len(spec.Churn) < 6; i += 3 {
		ev := ChurnEvent{
			At:   simtime.Duration(data[i+2]%40) * 250 * simtime.Millisecond,
			Kind: kinds[data[i]%4],
			Node: int(data[i+1]&0x7f) % nodes,
		}
		if (ev.Kind == ChurnLinkDown || ev.Kind == ChurnLinkUp) && data[i+1]&0x80 != 0 {
			ev.Node = -1 - ev.Node%((nodes+1)/2)
		}
		spec.Churn = append(spec.Churn, ev)
	}
	return spec.Canonical(), uint64(head[1] >> 1)
}
