package scenario

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

func TestSpecRoundTripPresets(t *testing.T) {
	for _, spec := range Presets() {
		enc, err := EncodeSpec(spec)
		if err != nil {
			t.Fatalf("%s: encode: %v", spec.Name, err)
		}
		dec, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v\n%s", spec.Name, err, enc)
		}
		if !reflect.DeepEqual(dec, spec.Canonical()) {
			t.Fatalf("%s: round trip changed the spec:\nwant %+v\ngot  %+v", spec.Name, spec.Canonical(), dec)
		}
		if dec.Fingerprint() != spec.Fingerprint() {
			t.Fatalf("%s: round trip changed the fingerprint", spec.Name)
		}
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := small()
	spec.Policies = []string{sched.NameAMPoM}
	if err := SaveSpec(path, spec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec.Canonical()) {
		t.Fatalf("file round trip changed the spec:\nwant %+v\ngot  %+v", spec.Canonical(), got)
	}
	// The explicit policy set canonicalises to {AMPoM, baseline}, sorted.
	want := []string{sched.NameAMPoM, sched.BaselineName}
	if !reflect.DeepEqual(got.Policies, want) {
		t.Fatalf("policies = %v, want %v", got.Policies, want)
	}
}

func TestDecodeSpecDefaults(t *testing.T) {
	spec, err := DecodeSpec([]byte(`{"version": 1, "name": "tiny", "nodes": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Name: "tiny", Nodes: 4}.Canonical()
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("defaulting diverged from Canonical:\nwant %+v\ngot  %+v", want, spec)
	}
	if len(spec.Policies) != len(sched.Names()) {
		t.Fatalf("default policy set %v, want every registered policy", spec.Policies)
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"version": 1, "nodez": 4}`,
		"missing version":   `{"name": "x"}`,
		"future version":    `{"version": 99}`,
		"bad arrival":       `{"version": 1, "arrival": "bogus"}`,
		"bad placement":     `{"version": 1, "placement": "bogus"}`,
		"bad mix kind":      `{"version": 1, "mix": [{"kind": "bogus", "weight": 1}]}`,
		"bad churn kind":    `{"version": 1, "churn": [{"at": "1s", "kind": "bogus", "node": 1}]}`,
		"bad duration":      `{"version": 1, "mean_compute": "fast"}`,
		"unknown policy":    `{"version": 1, "policies": ["bogus"]}`,
		"invalid structure": `{"version": 1, "nodes": 1}`,
		"trailing data":     `{"version": 1} {"version": 1}`,
		"not json":          `nonsense`,
	}
	for name, doc := range cases {
		if _, err := DecodeSpec([]byte(doc)); err == nil {
			t.Errorf("%s accepted: %s", name, doc)
		}
	}
}

func TestSpecFabricRoundTrip(t *testing.T) {
	for _, spec := range []Spec{
		func() Spec {
			s := small()
			s.Fabric = FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4, Oversub: 2}
			s.LoadVectorLen = 5
			return s
		}(),
		func() Spec {
			s := small()
			s.Fabric = FabricSpec{Topology: fabric.KindFlat, GossipFanout: 3, GossipPeriod: simtime.Second}
			s.Churn = []ChurnEvent{{At: simtime.Second, Kind: ChurnBalloon, Node: 1, Factor: 4}}
			return s
		}(),
	} {
		enc, err := EncodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(dec, spec.Canonical()) {
			t.Fatalf("fabric round trip changed the spec:\nwant %+v\ngot  %+v", spec.Canonical(), dec)
		}
		if dec.Fingerprint() != spec.Fingerprint() {
			t.Fatal("fabric round trip changed the fingerprint")
		}
	}
	// The default star omits the block entirely, keeping legacy documents
	// byte-stable; non-default blocks appear.
	enc, err := EncodeSpec(small())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), `"fabric"`) || strings.Contains(string(enc), `"load_vector_len"`) {
		t.Fatalf("default spec encodes fabric fields:\n%s", enc)
	}
	for name, doc := range map[string]string{
		"bad topology":  `{"version": 1, "fabric": {"topology": "hypercube"}}`,
		"bad rack size": `{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 1}}`,
		"bad fanout":    `{"version": 1, "fabric": {"topology": "flat", "gossip_fanout": 999}}`,
		"bad period":    `{"version": 1, "fabric": {"topology": "flat", "gossip_period": "soon"}}`,
		"bad balloon":   `{"version": 1, "churn": [{"at": "1s", "kind": "balloon", "node": 0, "factor": -2}]}`,
		"bad l":         `{"version": 1, "load_vector_len": -3}`,
	} {
		if _, err := DecodeSpec([]byte(doc)); err == nil {
			t.Errorf("%s accepted: %s", name, doc)
		}
	}
}

func TestReportDecodeRoundTrip(t *testing.T) {
	spec := small()
	spec.Fabric = FabricSpec{Topology: fabric.KindTwoTier, RackSize: 2}
	rep := MustRun(spec, 7)

	// Single object form.
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReports(js)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d reports from a single object", len(got))
	}
	if !reflect.DeepEqual(got[0].Spec, rep.Spec) {
		t.Fatalf("decoded spec diverged:\nwant %+v\ngot  %+v", rep.Spec, got[0].Spec)
	}
	if got[0].Seed != rep.Seed || got[0].Procs != rep.Procs || len(got[0].Schemes) != len(rep.Schemes) {
		t.Fatal("decoded report envelope diverged")
	}
	for i, st := range got[0].Schemes {
		want := rep.Schemes[i]
		if st.Policy != want.Policy || st.Migrations != want.Migrations ||
			st.HardFaults != want.HardFaults || st.MigrationBytes != want.MigrationBytes ||
			st.Events != want.Events || len(st.TierUse) != len(want.TierUse) {
			t.Fatalf("row %d diverged:\nwant %+v\ngot  %+v", i, want, st)
		}
	}
	// Decode→encode is stable at the JSON level (the regression-gate
	// property -diff relies on).
	js2, err := got[0].JSON()
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := DiffReportsData(js, js2, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("decode→encode diverged:\n%s", strings.Join(diffs, "\n"))
	}

	// Array form.
	batch, err := ReportsJSON([]*Report{rep, rep})
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeReports(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d reports from a 2-array", len(got))
	}

	// Garbage is rejected.
	for name, doc := range map[string]string{
		"bad version":   `{"version": 99}`,
		"unknown field": `{"version": 1, "bogus": 1}`,
		"trailing":      `{"version": 1} {}`,
		"not json":      `nonsense`,
	} {
		if _, err := DecodeReports([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestReportDecodeAcceptsUnregisteredPolicies locks the artefact contract:
// a report recorded under a custom policy decodes in a process that never
// registered it — the record of a past run must not depend on the
// decoder's registry (specs, by contrast, keep rejecting unknown names).
func TestReportDecodeAcceptsUnregisteredPolicies(t *testing.T) {
	doc := `{
  "version": 1,
  "spec": {"version": 1, "name": "foreign", "nodes": 4, "policies": ["my-custom-policy", "no-migration"]},
  "seed": 7,
  "procs": 16,
  "policies": [
    {"policy": "my-custom-policy", "makespan_s": 10, "mean_slowdown": 1.5, "slowdown_vs_base": 0.5,
     "migrations": 3, "frozen_s": 1, "extra_work_s": 0, "hard_faults": 0, "prefetch_pages": 0,
     "migration_bytes": 100, "unfinished": 0, "final_rtt_ms": 12, "events": 1000},
    {"policy": "no-migration", "makespan_s": 20, "mean_slowdown": 3, "slowdown_vs_base": 1,
     "migrations": 0, "frozen_s": 0, "extra_work_s": 0, "hard_faults": 0, "prefetch_pages": 0,
     "migration_bytes": 0, "unfinished": 0, "final_rtt_ms": 12, "events": 800}
  ]
}`
	reps, err := DecodeReports([]byte(doc))
	if err != nil {
		t.Fatalf("report with a custom policy failed to decode: %v", err)
	}
	if st, ok := reps[0].Scheme("my-custom-policy"); !ok || st.Migrations != 3 {
		t.Fatalf("custom policy row lost: %+v", reps[0].Schemes)
	}
	// The same names in a *spec* artefact stay rejected: a spec is an
	// input to run, and running needs the policy registered.
	if _, err := DecodeSpec([]byte(`{"version": 1, "policies": ["my-custom-policy"]}`)); err == nil {
		t.Fatal("spec with an unregistered policy accepted")
	}
	// And diffing artefacts with custom policies works too.
	if diffs, err := DiffReportsData([]byte(doc), []byte(doc), DiffOptions{}); err != nil || len(diffs) != 0 {
		t.Fatalf("self-diff of a custom-policy artefact failed: %v %v", diffs, err)
	}
}

func TestDiffReportsFindsDivergence(t *testing.T) {
	a := MustRun(small(), 7)
	b := MustRun(small(), 8)
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	same, err := DiffReportsData(aj, aj, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Fatalf("identical artefacts diverged:\n%s", strings.Join(same, "\n"))
	}
	diffs, err := DiffReportsData(aj, bj, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("different-seed artefacts compared equal")
	}
	found := false
	for _, d := range diffs {
		if strings.Contains(d, "seed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seed divergence not reported:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestDiffOptionsValidate: epsilons must be finite and non-negative, and
// RelEps may name only "" or a float column of the policy rows — a
// misspelt, count or string column is rejected rather than left exact.
func TestDiffOptionsValidate(t *testing.T) {
	for _, eps := range []map[string]float64{
		nil,
		{"": 0},
		{"": 0.01, "mean_slowdown": 0.02, "frozen_s": 1e9},
		{"sojourn_p95_s": 0.01, "final_rtt_ms": 0},
	} {
		if err := (DiffOptions{RelEps: eps}).Validate(); err != nil {
			t.Errorf("RelEps %v rejected: %v", eps, err)
		}
	}
	for _, c := range []struct {
		eps  map[string]float64
		want string
	}{
		{map[string]float64{"": -0.01}, "non-negative"},
		{map[string]float64{"frozen_s": math.NaN()}, "non-negative"},
		{map[string]float64{"": math.Inf(1)}, "non-negative"},
		{map[string]float64{"mean_slowdwon": 0.02}, `"mean_slowdwon"`},
		{map[string]float64{"migrations": 0.5}, `"migrations"`},
		{map[string]float64{"policy": 0.5}, `"policy"`},
	} {
		err := (DiffOptions{RelEps: c.eps}).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RelEps %v: error %v, want one naming %s", c.eps, err, c.want)
		}
	}
	// The comparison itself refuses options it cannot honour, before it
	// looks at the artefacts.
	_, err := DiffReportsData(nil, nil, DiffOptions{RelEps: map[string]float64{"": -1}})
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("DiffReportsData with a negative epsilon: %v", err)
	}
}

func TestReportJSONAndCSVDeterministic(t *testing.T) {
	rep := MustRun(small(), 7)
	j1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := MustRun(small(), 7).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("equal-seed runs rendered different JSON")
	}
	if rep.CSV() != MustRun(small(), 7).CSV() {
		t.Fatal("equal-seed runs rendered different CSV")
	}
	// One row per policy, in report order, in both encodings.
	for _, st := range rep.Schemes {
		if !strings.Contains(string(j1), `"policy": "`+st.Policy+`"`) {
			t.Fatalf("JSON missing policy %q:\n%s", st.Policy, j1)
		}
	}
	lines := strings.Split(strings.TrimSpace(rep.CSV()), "\n")
	if len(lines) != 1+len(rep.Schemes) {
		t.Fatalf("CSV has %d lines for %d policies", len(lines), len(rep.Schemes))
	}
	golden := readGolden(t, "legacy_star_small.csv.golden")
	if want, _, _ := strings.Cut(golden, "\n"); lines[0] != want {
		t.Fatalf("CSV header = %q, want the golden header %q", lines[0], want)
	}
}

func TestReportsEncodersSkipNil(t *testing.T) {
	rep := MustRun(small(), 7)
	js, err := ReportsJSON([]*Report{nil, rep})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(js), "[") {
		t.Fatal("ReportsJSON is not an array")
	}
	csv := ReportsCSV([]*Report{nil, rep, rep})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+2*len(rep.Schemes) {
		t.Fatalf("concatenated CSV has %d lines", len(lines))
	}
}
