package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ampom"
	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestSmokeList(t *testing.T) {
	out := clitest.Run(t, "-list")
	for _, want := range []string{"hpc-farm", "web-churn", "hetero-burst", "mpi-ranks",
		"rack-farm", "rack-farm-failures", "gossip-mesh", "two-tier", "flat",
		"no-migration", "load-vector", "mem-usher", "queue-gossip",
		"churn kinds:", "node-crash", "node-recover", "link-down", "link-up"} {
		if !strings.Contains(out, want) {
			t.Fatalf("%q missing from -list:\n%s", want, out)
		}
	}
}

func TestSmokeShrunkPreset(t *testing.T) {
	out := clitest.Run(t, "-scenario", "web-churn", "-nodes", "4", "-procs", "8", "-seed", "1")
	for _, want := range []string{"scenario web-churn", "no-migration", "openMosix", "AMPoM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeDeterministic(t *testing.T) {
	args := []string{"-scenario", "mpi-ranks", "-nodes", "4", "-procs", "8", "-seed", "3"}
	a := clitest.Run(t, args...)
	b := clitest.Run(t, append([]string{}, args...)...)
	if a != b {
		t.Fatalf("same seed printed different reports:\n%s\n---\n%s", a, b)
	}
}

func TestSmokeUnknownScenarioIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-scenario", "bogus")
	if !strings.Contains(stderr, "unknown preset") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeUnknownPolicyIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-scenario", "web-churn", "-policies", "bogus")
	if !strings.Contains(stderr, "unknown balancer policy") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokePolicySubset(t *testing.T) {
	out := clitest.Run(t, "-scenario", "web-churn", "-nodes", "4", "-procs", "8",
		"-policies", "AMPoM,openMosix", "-seed", "1")
	// The baseline is always added; the unlisted policies stay out.
	for _, want := range []string{"no-migration", "openMosix", "AMPoM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	for _, not := range []string{"load-vector", "mem-usher"} {
		if strings.Contains(out, not) {
			t.Fatalf("report includes excluded policy %q:\n%s", not, out)
		}
	}
}

// TestSpecReportRoundTrip is the acceptance criterion: a dumped spec
// reloads to an equal struct, a -spec run lists every registered policy
// (≥ 5, the two new ones included), and equal (spec, seed) inputs produce
// byte-identical JSON and CSV at any worker count.
func TestSpecReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	clitest.Run(t, "-scenario", "web-churn", "-nodes", "4", "-procs", "8", "-dump-spec", specPath)

	spec, err := ampom.LoadScenarioSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ampom.ScenarioPreset("web-churn")
	if err != nil {
		t.Fatal(err)
	}
	want.Nodes, want.Procs, want.NodeMemMB = 4, 8, 0
	want = want.Canonical()
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("saved spec reloads unequal:\nwant %+v\ngot  %+v", want, spec)
	}

	all := strings.Join(ampom.BalancerPolicyNames(), ",")
	for _, ext := range []string{".json", ".csv"} {
		out1 := filepath.Join(dir, "r1"+ext)
		out8 := filepath.Join(dir, "r8"+ext)
		clitest.Run(t, "-spec", specPath, "-policies", all, "-seed", "5", "-j", "1", "-o", out1)
		clitest.Run(t, "-spec", specPath, "-policies", all, "-seed", "5", "-j", "8", "-o", out8)
		b1, err := os.ReadFile(out1)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := os.ReadFile(out8)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b8) {
			t.Fatalf("%s reports differ between -j 1 and -j 8", ext)
		}
	}

	var rep struct {
		Policies []struct {
			Policy string `json:"policy"`
		} `json:"policies"`
	}
	data, err := os.ReadFile(filepath.Join(dir, "r1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Policies) < 5 {
		t.Fatalf("report lists %d policies, want >= 5", len(rep.Policies))
	}
	got := map[string]bool{}
	for _, p := range rep.Policies {
		got[p.Policy] = true
	}
	for _, want := range []string{ampom.PolicyLoadVector, ampom.PolicyMemUsher} {
		if !got[want] {
			t.Fatalf("report missing new policy %q (have %v)", want, got)
		}
	}
}

// TestSmokeFabricOverride drives the rack-farm shape at test scale: the
// -fabric override is honoured, the report carries tier rows, and equal
// seeds render byte-identically across worker counts (the acceptance
// property of `-scenario rack-farm -fabric two-tier -j 8`).
func TestSmokeFabricOverride(t *testing.T) {
	args := []string{"-scenario", "rack-farm", "-nodes", "16", "-procs", "64",
		"-fabric", "two-tier", "-seed", "3"}
	out := clitest.Run(t, append([]string{}, append(args, "-j", "1")...)...)
	for _, want := range []string{"scenario rack-farm", "tiers[", "edge", "core", "queue-gossip"} {
		if !strings.Contains(out, want) {
			t.Fatalf("two-tier report missing %q:\n%s", want, out)
		}
	}
	if out8 := clitest.Run(t, append([]string{}, append(args, "-j", "8")...)...); out8 != out {
		t.Fatalf("-j 1 and -j 8 rendered different rack-farm reports")
	}
	// The flat override drops the core tier; the star drops tiers outright.
	flat := clitest.Run(t, "-scenario", "rack-farm", "-nodes", "16", "-procs", "64",
		"-fabric", "flat", "-seed", "3")
	if !strings.Contains(flat, "edge") || strings.Contains(flat, "core") {
		t.Fatalf("flat report tiers wrong:\n%s", flat)
	}
	star := clitest.Run(t, "-scenario", "rack-farm", "-nodes", "16", "-procs", "64",
		"-fabric", "star", "-seed", "3")
	if strings.Contains(star, "tiers[") {
		t.Fatalf("star report carries tier rows:\n%s", star)
	}
}

// TestSmokeFailurePreset drives the failure-realism preset at test scale:
// the failure columns render, crashes and evacuations register, no process
// is lost, the extended CSV header lands in -o output, and equal seeds
// render byte-identically across -shards (failures are global events, so
// sharding stays an execution strategy).
func TestSmokeFailurePreset(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	args := []string{"-scenario", "rack-farm-failures", "-nodes", "64", "-procs", "256",
		"-policies", "no-migration,AMPoM,queue-gossip", "-seed", "3"}
	out := clitest.Run(t, append(append([]string{}, args...), "-o", csvPath)...)
	for _, want := range []string{"scenario rack-farm-failures",
		"p50(s)", "p95(s)", "p99(s)", "crashes", "evacuated", "failbacks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("failure report missing %q:\n%s", want, out)
		}
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(string(csvData), "\n", 2)[0]
	for _, col := range []string{"sojourn_p50_s", "sojourn_p99_s", "crashes", "evacuations", "fail_backs"} {
		if !strings.Contains(header, col) {
			t.Fatalf("CSV header missing %q: %s", col, header)
		}
	}
	if out2 := clitest.Run(t, append(append([]string{}, args...), "-shards", "2")...); out2 != out {
		t.Fatalf("-shards 2 rendered a different failure report:\n%s\n---\n%s", out, out2)
	}
}

// TestSmokeGossipWindowOverride drives the -gossip-window knob: a tiny
// window still renders a valid deterministic report (and a different run
// than the default, since the knob is behaviour-bearing), and a negative
// value is a usage error.
func TestSmokeGossipWindowOverride(t *testing.T) {
	args := []string{"-scenario", "rack-farm", "-nodes", "16", "-procs", "64",
		"-seed", "3", "-gossip-window", "2"}
	out := clitest.Run(t, args...)
	if !strings.Contains(out, "scenario rack-farm") || !strings.Contains(out, "queue-gossip") {
		t.Fatalf("windowed report malformed:\n%s", out)
	}
	def := clitest.Run(t, "-scenario", "rack-farm", "-nodes", "16", "-procs", "64", "-seed", "3")
	if def == out {
		t.Fatal("-gossip-window 2 rendered the default-window report — the knob is inert")
	}
	if out2 := clitest.Run(t, args...); out2 != out {
		t.Fatal("-gossip-window runs are not deterministic")
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "-scenario", "web-churn", "-gossip-window", "-3"); !strings.Contains(stderr, "gossip-window") {
		t.Fatalf("negative window stderr:\n%s", stderr)
	}
}

// TestSmokeNegativeSizeIsUsageError: -nodes and -procs of zero keep the
// preset's size, but a negative one must not silently run the unshrunk
// preset.
func TestSmokeNegativeSizeIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "hpc-farm", "-nodes", "-3", "-procs", "-7"},
		{"-scenario", "hpc-farm", "-nodes", "-3"},
		{"-scenario", "hpc-farm", "-nodes", "8", "-procs", "-7"},
	} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, args...)
		if !strings.Contains(stderr, "-nodes") && !strings.Contains(stderr, "-procs") {
			t.Fatalf("%v: stderr does not name the flag:\n%s", args, stderr)
		}
	}
}

func TestSmokeUnknownFabricIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-scenario", "web-churn", "-fabric", "hypercube")
	if !strings.Contains(stderr, "unknown topology") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestDiffReports locks the regression-gate mode: identical artefacts exit
// 0, diverging ones exit 1 with the divergence named, and bad usage exits 2.
func TestDiffReports(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	c := filepath.Join(dir, "c.json")
	base := []string{"-scenario", "web-churn", "-nodes", "4", "-procs", "8", "-j", "1"}
	clitest.Run(t, append(append([]string{}, base...), "-seed", "5", "-o", a)...)
	clitest.Run(t, append(append([]string{}, base...), "-seed", "5", "-o", b)...)
	clitest.Run(t, append(append([]string{}, base...), "-seed", "6", "-o", c)...)

	out := clitest.Run(t, "-diff", a, b)
	if !strings.Contains(out, "identical") {
		t.Fatalf("equal artefacts not reported identical:\n%s", out)
	}
	out, stderr := clitest.RunExpect(t, cli.CodeFail, "-diff", a, c)
	if !strings.Contains(out, "seed") {
		t.Fatalf("divergence lines missing the seed:\n%s", out)
	}
	if !strings.Contains(stderr, "divergence") {
		t.Fatalf("stderr missing the divergence summary:\n%s", stderr)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "-diff", a); !strings.Contains(stderr, "exactly two") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeFail, "-diff", a, filepath.Join(dir, "missing.json")); stderr == "" {
		t.Fatal("missing file diffed silently")
	}
}

// TestDiffTolerance locks the -diff-eps / -summary modes: a generous
// relative epsilon lets the float columns of two different-seed runs gate
// as equal only when counts also agree, a per-column epsilon loosens just
// its column, count divergences are never masked, and -summary renders one
// line per diverging column.
func TestDiffTolerance(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	c := filepath.Join(dir, "c.json")
	base := []string{"-scenario", "web-churn", "-nodes", "4", "-procs", "8", "-j", "1"}
	clitest.Run(t, append(append([]string{}, base...), "-seed", "5", "-o", a)...)
	clitest.Run(t, append(append([]string{}, base...), "-seed", "6", "-o", c)...)

	// Different seeds diverge in counts (seed, migrations, ...), so even an
	// enormous float epsilon must not gate them equal.
	out, _ := clitest.RunExpect(t, cli.CodeFail, "-diff", "-diff-eps", "1e9", a, c)
	if !strings.Contains(out, "seed") {
		t.Fatalf("count divergences masked by the float epsilon:\n%s", out)
	}

	// A hand-edited float column within the epsilon gates equal; outside
	// it, fails and names the epsilon.
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	// Decode with json.Number so untouched values (the uint64 seed above
	// all) re-encode exactly.
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	rows := doc["policies"].([]any)
	row := rows[0].(map[string]any)
	slow, err := row["mean_slowdown"].(json.Number).Float64()
	if err != nil {
		t.Fatal(err)
	}
	row["mean_slowdown"] = json.Number(strconv.FormatFloat(slow*1.004, 'g', -1, 64))
	edited, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.json")
	if err := os.WriteFile(b, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	if out := clitest.Run(t, "-diff", "-diff-eps", "0.01", a, b); !strings.Contains(out, "within tolerance") {
		t.Fatalf("0.4%% drift failed the 1%% gate:\n%s", out)
	}
	if out := clitest.Run(t, "-diff", "-diff-eps", "mean_slowdown=0.01", a, b); !strings.Contains(out, "within tolerance") {
		t.Fatalf("0.4%% drift failed the per-column 1%% gate:\n%s", out)
	}
	out, _ = clitest.RunExpect(t, cli.CodeFail, "-diff", "-diff-eps", "0.001", a, b)
	if !strings.Contains(out, "eps") || !strings.Contains(out, "mean_slowdown") {
		t.Fatalf("over-epsilon drift not reported with the epsilon named:\n%s", out)
	}
	// An epsilon scoped to another column leaves this one exact.
	if out, _ := clitest.RunExpect(t, cli.CodeFail, "-diff", "-diff-eps", "frozen_s=1", a, b); !strings.Contains(out, "mean_slowdown") {
		t.Fatalf("foreign-column epsilon loosened mean_slowdown:\n%s", out)
	}

	// Summary mode: one line per diverging column, with the deviation.
	out, _ = clitest.RunExpect(t, cli.CodeFail, "-diff", "-summary", a, b)
	if !strings.Contains(out, "column mean_slowdown: 1 divergence(s)") || !strings.Contains(out, "max rel dev") {
		t.Fatalf("summary mode output unexpected:\n%s", out)
	}

	// Flag hygiene: tolerance flags outside -diff, and malformed epsilons,
	// are usage errors.
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "-diff-eps", "0.1"); !strings.Contains(stderr, "only apply to -diff") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "-summary"); !strings.Contains(stderr, "only apply to -diff") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "-diff", "-diff-eps", "bogus", a, b); !strings.Contains(stderr, "not a non-negative epsilon") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
	// Epsilons the gate cannot honour — negative, infinite, or naming no
	// float column — are usage errors too, never a silently exact gate.
	for _, bad := range []string{"-0.02", "mean_slowdown=-1", "+Inf", "mean_slowdwon=0.02", "migrations=0.5"} {
		if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "-diff", "-diff-eps", bad, a, b); !strings.Contains(stderr, "diff epsilon") {
			t.Fatalf("-diff-eps %s: unexpected stderr:\n%s", bad, stderr)
		}
	}
}

// TestDiffToleranceSojournColumns locks -diff-eps over the failure plane's
// latency columns: the sojourn percentiles are float columns, so a
// per-column relative epsilon gates small drift as equal, while the
// crash/evacuation/fail-back counters always compare exactly.
func TestDiffToleranceSojournColumns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	clitest.Run(t, "-scenario", "rack-farm-failures", "-nodes", "64", "-procs", "256",
		"-policies", "no-migration,AMPoM", "-seed", "5", "-j", "1", "-o", a)

	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	rows := doc["policies"].([]any)
	row := rows[0].(map[string]any)
	p95, err := row["sojourn_p95_s"].(json.Number).Float64()
	if err != nil {
		t.Fatal(err)
	}
	row["sojourn_p95_s"] = json.Number(strconv.FormatFloat(p95*1.004, 'g', -1, 64))
	crashes, err := row["crashes"].(json.Number).Int64()
	if err != nil {
		t.Fatal(err)
	}
	edited, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.json")
	if err := os.WriteFile(b, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	if out := clitest.Run(t, "-diff", "-diff-eps", "sojourn_p95_s=0.01", a, b); !strings.Contains(out, "within tolerance") {
		t.Fatalf("0.4%% sojourn drift failed the per-column 1%% gate:\n%s", out)
	}
	out, _ := clitest.RunExpect(t, cli.CodeFail, "-diff", a, b)
	if !strings.Contains(out, "sojourn_p95_s") {
		t.Fatalf("exact diff did not flag the sojourn column:\n%s", out)
	}

	// A changed counter is never masked by a float epsilon.
	row["crashes"] = json.Number(strconv.FormatInt(crashes+1, 10))
	edited, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ = clitest.RunExpect(t, cli.CodeFail, "-diff", "-diff-eps", "1e9", a, b)
	if !strings.Contains(out, "crashes") {
		t.Fatalf("crash-counter divergence masked by the float epsilon:\n%s", out)
	}
}

// TestServerClientMode locks the -server mode: the binary submits to a
// running campaign service, waits, and writes the same bytes — stdout and
// -o file alike — as a local run of the identical spec; a re-run is
// served without re-simulating.
func TestServerClientMode(t *testing.T) {
	dir := t.TempDir()
	store, err := ampom.OpenResultStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ampom.NewClusterServer(ampom.ClusterServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	specArgs := []string{"-scenario", "web-churn", "-nodes", "4", "-procs", "8"}
	local := filepath.Join(dir, "local.json")
	remote := filepath.Join(dir, "remote.json")
	localOut := clitest.Run(t, append(append([]string{}, specArgs...), "-o", local)...)
	remoteOut := clitest.Run(t, append(append([]string{}, specArgs...),
		"-server", hs.URL, "-api-key", "smoke", "-o", remote)...)
	if localOut != remoteOut {
		t.Fatalf("-server rendered different stdout:\n%s\n---\n%s", localOut, remoteOut)
	}
	lb, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if string(lb) != string(rb) {
		t.Fatal("-server wrote different report bytes than the local run")
	}

	// A second client run of the same spec dedupes server-side: the
	// service still has executed exactly one simulation.
	clitest.Run(t, append(append([]string{}, specArgs...), "-server", hs.URL)...)
	stats, err := ampom.NewClusterClient(hs.URL).ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 1 {
		t.Fatalf("service executed %d simulations for two client runs, want 1", stats.Executed)
	}

	// -store is a local-mode flag; combining it with -server is caught
	// before any work.
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage,
		"-server", hs.URL, "-store", dir, "-scenario", "web-churn"); !strings.Contains(stderr, "-store") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestBatchStoreFlag locks the -store flag: reports persist to the
// content-addressed store, an identical re-run is served from disk, and
// the output bytes are unchanged either way.
func TestBatchStoreFlag(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	args := []string{"-scenario", "web-churn", "-nodes", "4", "-procs", "8", "-store", storeDir}
	out1 := clitest.Run(t, append(append([]string{}, args...), "-o", filepath.Join(dir, "a.json"))...)
	out2 := clitest.Run(t, append(append([]string{}, args...), "-o", filepath.Join(dir, "b.json"))...)
	if out1 != out2 {
		t.Fatal("store-served re-run rendered different output")
	}
	a, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("store-served re-run wrote different bytes")
	}
	var cells int
	filepath.Walk(storeDir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".rst") {
			cells++
		}
		return nil
	})
	if cells != 1 {
		t.Fatalf("store holds %d cells, want 1", cells)
	}
}

func TestSmokeBadOutputExtensionIsUsageError(t *testing.T) {
	// Rejected before anything runs: a pure argument mistake must not cost
	// a full campaign.
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-o", "report.xml")
	if !strings.Contains(stderr, ".json or .csv") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestSmokeProfileFlags runs a shrunk preset under both profilers and
// checks real pprof artefacts land where asked; profiling a -server
// submission is a usage error (the simulation lives in the remote
// process).
func TestSmokeProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	clitest.Run(t, "-scenario", "web-churn", "-nodes", "4", "-procs", "8", "-seed", "1",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	_, stderr := clitest.RunExpect(t, cli.CodeUsage,
		"-server", "http://localhost:1", "-cpuprofile", cpu, "-scenario", "web-churn")
	if !strings.Contains(stderr, "profile local runs") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeNegativeWorkersIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-j", "-3")
	if !strings.Contains(stderr, "must be >= 0") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}
