package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/netmodel"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// The spec-codec golden pins the spec format itself: the encoding of every
// preset and of two hand-built specs that set every field the presets leave
// at zero, and the verdict on a table of hand-written documents — rejected,
// or the accepted spec's canonical re-encoding. Error texts are not pinned;
// which documents decode, and to what, is.

var updateGolden = flag.Bool("update", false, "rewrite testdata/spec_codec.golden from the current code")

// codecGoldenSpecs are a flat and a two-tier spec that between them set
// every spec field, every mix and churn kind and the failure knobs.
func codecGoldenSpecs() []Spec {
	flat := Spec{
		Name: "codec-flat", Nodes: 12, Procs: 30,
		SlowFrac: 0.25, FastFrac: 0.25, SlowScale: 0.4, FastScale: 3,
		Arrival: ArrivalPoisson, MeanInterarrival: 100 * simtime.Millisecond,
		Skew: -0.5, MeanCompute: 1500 * simtime.Millisecond, MeanFootprintMB: 48, NodeMemMB: 512,
		Mix:           []MixWeight{{MixSequential, 1}, {MixBlocked, 2}, {MixRandom, 3}, {MixSmallWS, 4}},
		Policies:      []string{sched.NameQueueGossip, sched.NameAMPoM},
		LoadVectorLen: 5,
		Evacuate:      true,
		Network:       netmodel.Broadband(),
		Fabric: FabricSpec{Topology: fabric.KindFlat, GossipFanout: 3,
			GossipPeriod: 750 * simtime.Millisecond, GossipWindow: 8},
		BackgroundLoad: 0.15,
		BalancePeriod:  500 * simtime.Millisecond,
		CostThreshold:  1.5,
		Quantum:        20 * simtime.Millisecond,
		MaxSimTime:     90 * simtime.Second,
		Churn: []ChurnEvent{
			{At: simtime.Second, Kind: ChurnSlowNode, Node: 3, Factor: 0.5},
			{At: 1500 * simtime.Millisecond, Kind: ChurnBurst, Node: 0, Procs: 4},
			{At: 2 * simtime.Second, Kind: ChurnNetLoad, Node: -1, Factor: 0.3},
			{At: 2500 * simtime.Millisecond, Kind: ChurnBalloon, Node: 2, Factor: 3},
			{At: 3 * simtime.Second, Kind: ChurnNodeCrash, Node: 4},
			{At: 4 * simtime.Second, Kind: ChurnLinkDown, Node: 5},
			{At: 5 * simtime.Second, Kind: ChurnLinkUp, Node: 5},
			{At: 6 * simtime.Second, Kind: ChurnNodeRecover, Node: 4},
		},
	}
	twoTier := Spec{
		Name: "codec-two-tier", Nodes: 16, Procs: 48,
		Placement: PlaceRoundRobin, MeanCompute: 4 * simtime.Second, MeanFootprintMB: 64,
		Mix:           []MixWeight{{MixRandom, 1}, {MixSequential, 2}},
		LoadVectorLen: 7,
		Evacuate:      true,
		Network: netmodel.Profile{Name: "custom-link", LatencyOneWay: 250 * simtime.Microsecond,
			BandwidthBps: 5e7},
		Fabric:         FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4, Oversub: 2},
		BackgroundLoad: 0.05,
		Churn: []ChurnEvent{
			{At: 0, Kind: ChurnNetLoad, Node: 3, Factor: 0.2},
			{At: 2 * simtime.Second, Kind: ChurnNodeCrash, Node: 1},
			{At: 3 * simtime.Second, Kind: ChurnLinkDown, Node: -2},
			{At: 5 * simtime.Second, Kind: ChurnLinkUp, Node: -2},
			{At: 7 * simtime.Second, Kind: ChurnNodeRecover, Node: 1},
		},
	}
	return []Spec{flat, twoTier}
}

// specEdgeDocs are hand-written spec documents at the edges of the format:
// empty, null and numeric durations; empty, unknown and mis-cased enum
// names; empty and null blocks; unknown and mis-cased keys at every depth;
// entries without a kind. FuzzSpecRoundTrip seeds its corpus with them.
var specEdgeDocs = []string{
	`{"version": 1}`,
	`{}`,
	`null`,
	`[]`,
	`{"version": 2}`,
	`{"version": "1"}`,
	`{"version": 1, "spec": {"nodes": 4}}`,
	`{"version": 1, "Spec": {"nodes": 4}}`,
	`{"version": 1, "nodes": 4, "nodes": 5}`,
	`{"Version": 1, "NODES": 5, "Mean_Compute": "3s"}`,
	`{"version": 1, "nodez": 4}`,
	`{"version": 1, "evacuate": "yes"}`,
	`{"version": 1, "quantum": ""}`,
	`{"version": 1, "quantum": null}`,
	`{"version": 1, "quantum": 5}`,
	`{"version": 1, "quantum": "5"}`,
	`{"version": 1, "quantum": "0"}`,
	`{"version": 1, "quantum": "-1s"}`,
	`{"version": 1, "quantum": 1.5}`,
	`{"version": 1, "mean_compute": "1h2m3.5s", "balance_period": "750ms"}`,
	`{"version": 1, "max_sim_time": "9999999999h"}`,
	`{"version": 1, "mean_interarrival": "100us", "arrival": "poisson"}`,
	`{"version": 1, "arrival": ""}`,
	`{"version": 1, "arrival": null}`,
	`{"version": 1, "arrival": "Poisson"}`,
	`{"version": 1, "arrival": "bogus"}`,
	`{"version": 1, "arrival": 1}`,
	`{"version": 1, "arrival": " batch"}`,
	`{"version": 1, "placement": ""}`,
	`{"version": 1, "placement": "round-robin"}`,
	`{"version": 1, "placement": "roundrobin"}`,
	`{"version": 1, "mix": null}`,
	`{"version": 1, "mix": []}`,
	`{"version": 1, "mix": [{"kind": "small-ws", "weight": 2}, {"kind": "random", "weight": 1}]}`,
	`{"version": 1, "mix": [{"KIND": "blocked", "Weight": 3}]}`,
	`{"version": 1, "mix": [{"kind": "", "weight": 1}]}`,
	`{"version": 1, "mix": [{"kind": "Random", "weight": 1}]}`,
	`{"version": 1, "mix": [{"kind": "MixKind(7)", "weight": 1}]}`,
	`{"version": 1, "mix": [{"kind": "random"}]}`,
	`{"version": 1, "mix": [{"weight": 2}]}`,
	`{"version": 1, "mix": [null, {"kind": "random", "weight": 1}]}`,
	`{"version": 1, "mix": [{"kind": "random", "weight": 1, "bogus": 1}]}`,
	`{"version": 1, "churn": [{"at": "", "kind": "slow-node", "node": 1, "factor": 2}]}`,
	`{"version": 1, "churn": [{"at": null, "kind": "burst", "node": 1, "procs": 2}]}`,
	`{"version": 1, "churn": [{"at": 1, "kind": "slow-node", "node": 1, "factor": 2}]}`,
	`{"version": 1, "churn": [{"at": "1s", "kind": "", "node": 1, "factor": 2}]}`,
	`{"version": 1, "churn": [{"at": "1s", "kind": "Slow-Node", "node": 1, "factor": 2}]}`,
	`{"version": 1, "churn": [{"at": "1s", "node": 1, "factor": 2}]}`,
	`{"version": 1, "churn": [null]}`,
	`{"version": 1, "churn": [{"at": "1s", "kind": "balloon", "node": 1, "factor": 2, "size": 3}]}`,
	`{"version": 1, "churn": [{"AT": "1s", "Kind": "balloon", "NODE": 1, "factor": 2}]}`,
	`{"version": 1, "fabric": {}}`,
	`{"version": 1, "fabric": null}`,
	`{"version": 1, "fabric": {"topology": ""}}`,
	`{"version": 1, "fabric": {"topology": "star", "rack_size": 8, "gossip_period": "3s"}}`,
	`{"version": 1, "fabric": {"topology": "Flat"}}`,
	`{"version": 1, "fabric": {"topology": "hypercube"}}`,
	`{"version": 1, "fabric": {"topology": 1}}`,
	`{"version": 1, "fabric": {"topology": "flat", "gossip_period": ""}}`,
	`{"version": 1, "fabric": {"topology": "flat", "gossip_period": "soon"}}`,
	`{"version": 1, "fabric": {"rack_size": 4, "oversubscription": 2}}`,
	`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4, "bogus": 1}}`,
	`{"version": 1, "fabric": {"Topology": "two-tier", "Rack_Size": 4}}`,
	`{"version": 1, "fabric": {"topology": "flat"}, "evacuate": true, "churn": [{"at": "1s", "kind": "node-crash", "node": 2}]}`,
	`{"version": 1, "network": null}`,
	`{"version": 1, "network": {}}`,
	`{"version": 1, "network": {"name": "lan", "latency_one_way": "1ms", "bandwidth_bps": 1e6}}`,
	`{"version": 1, "network": {"latency_one_way": "", "bandwidth_bps": 1e6}}`,
	`{"version": 1, "network": {"latency_one_way": 3, "bandwidth_bps": 1e6}}`,
	`{"version": 1, "network": {"bandwidth_bps": 1e6, "bogus": 1}}`,
	`{"version": 1, "network": {"Name": "lan", "BANDWIDTH_BPS": 1e6}}`,
	`{"version": 1, "load_vector_len": 7, "evacuate": false, "background_load": 0.5}`,
	`{"version": 1, "background_load": 0.96}`,
	`{"version": 1, "policies": []}`,
	`{"version": 1, "policies": [null]}`,
}

// TestSpecCodecGolden pins the spec encoding and the verdict table.
// Regenerate with `go test ./internal/scenario -run TestSpecCodecGolden
// -update` only when the format changes on purpose.
func TestSpecCodecGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range append(Presets(), codecGoldenSpecs()...) {
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "# %s\n%s", s.Name, enc)
	}
	b.WriteString("# verdicts\n")
	for _, doc := range specEdgeDocs {
		verdict := "rejected"
		if s, err := DecodeSpec([]byte(doc)); err == nil {
			enc, err := EncodeSpec(s)
			if err != nil {
				t.Fatalf("%s: accepted spec does not encode: %v", doc, err)
			}
			var flat bytes.Buffer
			if err := json.Compact(&flat, enc); err != nil {
				t.Fatal(err)
			}
			verdict = flat.String()
		}
		fmt.Fprintf(&b, "in:  %s\nout: %s\n", doc, verdict)
	}
	got := b.String()
	path := filepath.Join("testdata", "spec_codec.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverged at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, golden has %d", path, len(gl), len(wl))
}
