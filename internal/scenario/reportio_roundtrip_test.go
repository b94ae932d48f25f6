package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/simtime"
)

// This file locks the property the result store and the campaign service
// lean on: report encoding is a fixed point of the I/O round trip. A
// stored artefact decoded and re-encoded is byte-identical, so serving
// decoded reports (engine store hits, the daemon's CSV endpoint, the
// -server client mode) can never drift from the bytes the simulation
// originally rendered.

// randDuration returns a whole-millisecond duration; whole units keep the
// float seconds/milliseconds wire forms exactly recoverable.
func randDuration(rng *rand.Rand) simtime.Duration {
	return simtime.Duration(rng.Int63n(1_000_000_000)) * simtime.Millisecond
}

// randReport builds a syntactically valid report with adversarial values:
// multiple policies (registry and custom names), optional tier rows,
// full-range seeds and large counters.
func randReport(rng *rand.Rand, idx int) *Report {
	spec := Spec{
		Name:            fmt.Sprintf("rt-%d", idx),
		Nodes:           2 + rng.Intn(63),
		MeanFootprintMB: 1 + rng.Int63n(512),
		Skew:            rng.Float64(),
	}
	failures := false
	if rng.Intn(2) == 0 {
		spec.Fabric = FabricSpec{Topology: fabric.KindTwoTier, RackSize: 2 + rng.Intn(6)}
		// Half the switched specs carry failure churn, so the round trip
		// covers the failure-plane event kinds, the evacuate knob and the
		// extended CSV column set.
		if rng.Intn(2) == 0 {
			failures = true
			v := rng.Intn(2)
			spec.Churn = []ChurnEvent{
				{At: 1 * simtime.Second, Kind: ChurnNodeCrash, Node: v},
				{At: 2 * simtime.Second, Kind: ChurnLinkDown, Node: -1},
				{At: 3 * simtime.Second, Kind: ChurnLinkUp, Node: -1},
				{At: 4 * simtime.Second, Kind: ChurnNodeRecover, Node: v},
			}
			spec.Evacuate = rng.Intn(2) == 0
		}
	}
	spec = spec.Canonical()
	rep := &Report{
		Spec:  spec,
		Seed:  rng.Uint64(),
		Procs: 1 + rng.Intn(256),
	}
	policies := []string{"no-migration", "AMPoM", "openMosix", fmt.Sprintf("custom-%d", idx)}
	n := 1 + rng.Intn(len(policies))
	for _, pol := range policies[:n] {
		st := SchemeStats{
			Policy:         pol,
			Makespan:       randDuration(rng),
			MeanSlowdown:   rng.Float64() * 100,
			SlowdownVsBase: rng.Float64() * 10,
			Migrations:     rng.Intn(10_000),
			FrozenTotal:    randDuration(rng),
			ExtraWork:      randDuration(rng),
			HardFaults:     rng.Int63(),
			PrefetchPages:  rng.Int63(),
			MigrationBytes: rng.Int63(),
			Unfinished:     rng.Intn(64),
			FinalRTT:       randDuration(rng),
			Events:         rng.Uint64(),
		}
		if failures {
			st.SojournP50 = randDuration(rng)
			st.SojournP95 = randDuration(rng)
			st.SojournP99 = randDuration(rng)
			st.Crashes = rng.Intn(16)
			st.Evacuations = rng.Intn(256)
			st.FailBacks = rng.Intn(64)
		}
		for tier := 0; tier < rng.Intn(3); tier++ {
			st.TierUse = append(st.TierUse, fabric.TierStats{
				Name:        fmt.Sprintf("tier-%d", tier),
				Links:       1 + rng.Intn(64),
				CapacityBps: float64(rng.Int63n(1e12)),
				Bytes:       rng.Int63(),
			})
		}
		rep.Schemes = append(rep.Schemes, st)
	}
	return rep
}

// roundTripOnce decodes a single-report JSON artefact and asserts the
// decoded report re-encodes to the identical bytes (JSON) and the
// identical CSV as the original report.
func roundTripOnce(t *testing.T, label string, rep *Report, data []byte) *Report {
	t.Helper()
	decoded, err := DecodeReports(data)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(decoded) != 1 {
		t.Fatalf("%s: decoded %d reports, want 1", label, len(decoded))
	}
	re, err := decoded[0].JSON()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(re, data) {
		t.Fatalf("%s: decode→re-encode is not byte-identical:\n%s\n---\n%s", label, data, re)
	}
	if got, want := decoded[0].CSV(), rep.CSV(); got != want {
		t.Fatalf("%s: CSV of decoded report differs:\n%s\n---\n%s", label, got, want)
	}
	return decoded[0]
}

// TestReportRoundTripProperty drives randomized reports through the JSON
// codec: one decode reaches the encoding's fixed point, and a second
// round stays there byte for byte.
func TestReportRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		rep := randReport(rng, i)
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		dec := roundTripOnce(t, fmt.Sprintf("report %d", i), rep, data)
		// Idempotence: a second round trip of the decoded form is exact.
		data2, err := dec.JSON()
		if err != nil {
			t.Fatal(err)
		}
		roundTripOnce(t, fmt.Sprintf("report %d (second round)", i), dec, data2)
	}
}

// TestReportsArrayRoundTrip locks the batch (array) artefact: decode and
// re-encode of a multi-report document is byte-identical, and the shared
// CSV document survives the trip.
func TestReportsArrayRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reps []*Report
	for i := 0; i < 5; i++ {
		reps = append(reps, randReport(rng, 100+i))
	}
	data, err := ReportsJSON(reps)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReports(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(reps) {
		t.Fatalf("decoded %d reports, want %d", len(decoded), len(reps))
	}
	re, err := ReportsJSON(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("array artefact decode→re-encode is not byte-identical")
	}
	if got, want := ReportsCSV(decoded), ReportsCSV(reps); got != want {
		t.Fatal("batch CSV differs after the round trip")
	}
}

// TestRealRunRoundTrip anchors the property on a genuine simulation — a
// small two-tier run whose report carries tier rows — so the generated
// cases cannot drift from what the engine actually emits.
func TestRealRunRoundTrip(t *testing.T) {
	spec := Spec{
		Name:            "rt-real",
		Nodes:           8,
		Procs:           16,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
		Fabric:          FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4},
	}.Canonical()
	rep, err := Run(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	var tiers int
	for _, st := range rep.Schemes {
		tiers += len(st.TierUse)
	}
	if tiers == 0 {
		t.Fatal("two-tier run rendered no tier rows; the round trip would not cover them")
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	roundTripOnce(t, "real run", rep, data)
}

// TestReportSpecVersionChecked: a report whose embedded spec carries a
// format version this codec does not read is rejected — by DecodeReports
// and by the diff, in object and array form — with the error DecodeSpec
// gives for the same version, rather than decoded or compared field by
// field as a divergence.
func TestReportSpecVersionChecked(t *testing.T) {
	rep := randReport(rand.New(rand.NewSource(3)), 0)
	good, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte("\"spec\": {\n    \"version\": 1,")
	if !bytes.Contains(good, marker) {
		t.Fatalf("report JSON has no spec version line:\n%s", good)
	}
	bad := bytes.Replace(good, marker, []byte("\"spec\": {\n    \"version\": 99,"), 1)
	spec, err := EncodeSpec(rep.Spec)
	if err != nil {
		t.Fatal(err)
	}
	_, specErr := DecodeSpec(bytes.Replace(spec, []byte(`"version": 1,`), []byte(`"version": 99,`), 1))
	if specErr == nil {
		t.Fatal("DecodeSpec accepted spec version 99")
	}
	array := append(append([]byte("["), bad...), ']')
	for _, doc := range [][]byte{bad, array} {
		if _, err := DecodeReports(doc); err == nil || err.Error() != specErr.Error() {
			t.Errorf("DecodeReports: got error %v, want %q", err, specErr)
		}
		if diffs, err := DiffReportsData(good, doc, DiffOptions{}); err == nil || !strings.HasSuffix(err.Error(), specErr.Error()) {
			t.Errorf("DiffReportsData: got %v, error %v; want the error %q", diffs, err, specErr)
		}
	}
	if _, err := DecodeReports(good); err != nil {
		t.Fatalf("the unedited report no longer decodes: %v", err)
	}
}
