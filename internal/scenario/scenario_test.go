package scenario

import (
	"math"
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/infod"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// MustRun is Run panicking on error.
func MustRun(spec Spec, seed uint64) *Report {
	r, err := Run(spec, seed)
	if err != nil {
		panic(err)
	}
	return r
}

// small returns a quick scenario for tests that only need the machinery,
// not the scale.
func small() Spec {
	return Spec{
		Name:            "small",
		Nodes:           4,
		Procs:           12,
		MeanCompute:     8 * simtime.Second,
		MeanFootprintMB: 32,
		Skew:            0.7,
	}.Canonical()
}

func TestRunDeterministic(t *testing.T) {
	spec, err := Preset("hpc-farm")
	if err != nil {
		t.Fatal(err)
	}
	a := MustRun(spec, 7).Render()
	b := MustRun(spec, 7).Render()
	if a != b {
		t.Fatalf("same seed rendered different reports:\n%s\n---\n%s", a, b)
	}
}

func TestSeedChangesReport(t *testing.T) {
	spec := small()
	if MustRun(spec, 7).Render() == MustRun(spec, 8).Render() {
		t.Fatal("changing the seed left the report unchanged")
	}
}

func TestPresetsValidAndDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, name := range PresetNames() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
		if spec.Canonical().Fingerprint() != spec.Canonical().Canonical().Fingerprint() {
			t.Fatalf("preset %s: Canonical is not a fixed point", name)
		}
		fp := spec.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("presets %s and %s share fingerprint %q", prev, name, fp)
		}
		seen[fp] = name
	}
	if _, err := Preset("nonsense"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestAcceptancePresetShape(t *testing.T) {
	// The acceptance scenario is pinned: 64 nodes, 256 processes.
	spec, err := Preset("hpc-farm")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 64 || spec.Procs != 256 {
		t.Fatalf("hpc-farm is %d nodes / %d procs, want 64/256", spec.Nodes, spec.Procs)
	}
}

func TestFingerprintCanonicalises(t *testing.T) {
	var zero Spec
	if zero.Fingerprint() != zero.Canonical().Fingerprint() {
		t.Fatal("zero spec and its canonical form fingerprint differently")
	}
	shrunk := small()
	shrunk.Procs = 6
	if shrunk.Fingerprint() == small().Fingerprint() {
		t.Fatal("changing Procs left the fingerprint unchanged")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Nodes: 1},
		{SlowFrac: 0.7, FastFrac: 0.7},
		{SlowFrac: math.NaN()},
		{FastFrac: math.NaN()},
		{SlowFrac: math.NaN(), FastFrac: math.NaN()},
		{Skew: 2},
		{BackgroundLoad: 0.99},
		{Quantum: -simtime.Millisecond},
		{MeanCompute: -simtime.Second},
		{MeanInterarrival: -simtime.Second},
		{BalancePeriod: -simtime.Second},
		{MaxSimTime: -simtime.Second},
		{MeanFootprintMB: -1},
		{CostThreshold: -2},
		{Mix: []MixWeight{{Kind: MixRandom, Weight: 0}}},
		{Churn: []ChurnEvent{{Kind: ChurnSlowNode, Node: 99, Factor: 0.5}}},
		{Churn: []ChurnEvent{{Kind: ChurnBurst, Node: 0, Procs: 0}}},
		{Churn: []ChurnEvent{{Kind: ChurnNetLoad, Node: 0, Factor: 0.5}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestMigrationImprovesSkewedBurst(t *testing.T) {
	rep := MustRun(small(), 42)
	base := rep.Baseline()
	am, ok := rep.Scheme(sched.NameAMPoM)
	if !ok {
		t.Fatal("no AMPoM row")
	}
	om, ok := rep.Scheme(sched.NameOpenMosix)
	if !ok {
		t.Fatal("no openMosix row")
	}
	if am.Migrations == 0 {
		t.Fatal("skewed burst triggered no AMPoM migrations")
	}
	if am.MeanSlowdown >= base.MeanSlowdown {
		t.Fatalf("AMPoM slowdown %.2f did not beat no-migration %.2f", am.MeanSlowdown, base.MeanSlowdown)
	}
	if am.HardFaults == 0 || am.PrefetchPages == 0 {
		t.Fatal("AMPoM migrations produced no prefetch census")
	}
	if om.HardFaults != 0 || om.PrefetchPages != 0 {
		t.Fatal("openMosix must not report remote faults")
	}
	if base.Migrations != 0 || base.MigrationBytes != 0 {
		t.Fatal("no-migration baseline moved something")
	}
}

func TestPolicySetCanonicalAndFingerprinted(t *testing.T) {
	full := small()
	subset := small()
	subset.Policies = []string{sched.NameAMPoM}

	// Canonical: empty means the whole registry; explicit sets gain the
	// baseline and sort.
	if got := full.Canonical().Policies; len(got) != len(sched.Names()) {
		t.Fatalf("default policy set %v, want the registry", got)
	}
	want := []string{sched.NameAMPoM, sched.BaselineName}
	got := subset.Canonical().Policies
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("subset canonicalised to %v, want %v", got, want)
	}

	// The policy set is part of the job key.
	if full.Fingerprint() == subset.Fingerprint() {
		t.Fatal("policy set missing from the fingerprint")
	}

	// A subset run reports exactly its rows, in sorted order.
	rep := MustRun(subset, 42)
	if len(rep.Schemes) != 2 || rep.Schemes[0].Policy != sched.NameAMPoM || rep.Schemes[1].Policy != sched.BaselineName {
		t.Fatalf("subset report rows wrong: %+v", rep.Schemes)
	}
	if rep.Baseline().Policy != sched.BaselineName {
		t.Fatal("Baseline did not find the no-migration row")
	}

	// Unknown policies are rejected.
	bad := small()
	bad.Policies = []string{"bogus"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}

func TestNewPoliciesActOnPressure(t *testing.T) {
	// A tight-memory, heavily skewed cluster: the usher must evacuate the
	// entry node, and the load-vector policy must migrate despite partial
	// knowledge.
	spec := small()
	spec.NodeMemMB = 2 * spec.MeanFootprintMB
	rep := MustRun(spec, 42)
	usher, ok := rep.Scheme(sched.NameMemUsher)
	if !ok {
		t.Fatal("no mem-usher row")
	}
	if usher.Migrations == 0 {
		t.Fatal("memory pressure triggered no ushering")
	}
	lv, ok := rep.Scheme(sched.NameLoadVector)
	if !ok {
		t.Fatal("no load-vector row")
	}
	if lv.Migrations == 0 {
		t.Fatal("skewed burst triggered no load-vector migrations")
	}
	base := rep.Baseline()
	if lv.MeanSlowdown >= base.MeanSlowdown {
		t.Fatalf("load-vector slowdown %.2f did not beat no-migration %.2f",
			lv.MeanSlowdown, base.MeanSlowdown)
	}
}

func TestBurstChurnAddsProcesses(t *testing.T) {
	spec := small()
	spec.Churn = []ChurnEvent{{At: simtime.Second, Kind: ChurnBurst, Node: 1, Procs: 5}}
	rep := MustRun(spec, 42)
	if rep.Procs != spec.Procs+5 {
		t.Fatalf("report has %d procs, want %d", rep.Procs, spec.Procs+5)
	}
	if !strings.Contains(rep.Render(), "(5 in bursts)") {
		t.Fatal("burst not reported in the header")
	}
}

func TestChurnChangesOutcome(t *testing.T) {
	plain := small()
	churned := small()
	churned.Churn = []ChurnEvent{{At: simtime.Second, Kind: ChurnSlowNode, Node: 0, Factor: 0.25}}
	if MustRun(plain, 42).Render() == MustRun(churned, 42).Render() {
		t.Fatal("slowing the loaded node changed nothing")
	}
	if plain.Fingerprint() == churned.Fingerprint() {
		t.Fatal("churn missing from the fingerprint")
	}
}

func TestNegativeSkewMeansUniform(t *testing.T) {
	spec := small()
	spec.Procs = 400
	spec.Skew = -1
	if err := spec.Validate(); err != nil {
		t.Fatalf("negative skew rejected: %v", err)
	}
	if got := spec.Canonical().Skew; got != -1 {
		t.Fatalf("canonical skew %g, want the -1 uniform sentinel", got)
	}
	if spec.Fingerprint() == small().Fingerprint() {
		t.Fatal("uniform placement shares a fingerprint with the skewed default")
	}
	_, procs := buildWorkload(spec.Canonical(), 42)
	onZero := 0
	for _, p := range procs {
		if p.node == 0 {
			onZero++
		}
	}
	// Uniform over 4 nodes: ~100 of 400 on node 0, nowhere near the 0.8
	// default skew's ~320.
	if onZero > len(procs)/2 {
		t.Fatalf("%d of %d processes on node 0 — placement still skewed", onZero, len(procs))
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	spec := small()
	spec.Placement = PlaceRoundRobin
	_, procs := buildWorkload(spec, 42)
	for i, p := range procs {
		if p.node != i%spec.Nodes {
			t.Fatalf("proc %d placed on node %d, want %d", i, p.node, i%spec.Nodes)
		}
	}
}

func TestWorkloadSharedAcrossPolicies(t *testing.T) {
	// The templates must come out identically however often they are drawn.
	spec := small()
	_, a := buildWorkload(spec, 9)
	_, b := buildWorkload(spec, 9)
	if len(a) != len(b) {
		t.Fatal("template counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("template %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFootprintDrawNeverZero pins the degenerate-mean clamp: a 1 MB mean
// footprint (0/2 + Uint64n(1) == 0 before the clamp) must still yield
// processes that cost something to migrate.
func TestFootprintDrawNeverZero(t *testing.T) {
	spec := small()
	spec.MeanFootprintMB = 1
	_, procs := buildWorkload(spec.Canonical(), 42)
	for _, p := range procs {
		if p.footprintMB < 1 {
			t.Fatalf("proc %d drew a %d MB footprint at mean 1 MB", p.id, p.footprintMB)
		}
	}
}

func TestHorizonBoundsRun(t *testing.T) {
	spec := small()
	spec.MaxSimTime = 3 * simtime.Second // far too short to finish
	rep := MustRun(spec, 42)
	for _, st := range rep.Schemes {
		if st.Unfinished == 0 {
			t.Fatalf("%v: horizon of %v finished everything", st.Policy, spec.MaxSimTime)
		}
		if st.Makespan > spec.MaxSimTime {
			t.Fatalf("%v: makespan %v beyond horizon", st.Policy, st.Makespan)
		}
	}
}

func TestHeterogeneousScales(t *testing.T) {
	spec := small()
	spec.SlowFrac, spec.FastFrac = 0.25, 0.25
	scales, _ := buildWorkload(spec, 42)
	slow, fast, ref := 0, 0, 0
	for _, s := range scales {
		switch s {
		case spec.SlowScale:
			slow++
		case spec.FastScale:
			fast++
		case 1:
			ref++
		default:
			t.Fatalf("unexpected CPU scale %g", s)
		}
	}
	if slow != 1 || fast != 1 || ref != 2 {
		t.Fatalf("tier split %d/%d/%d, want 1 slow, 1 fast, 2 reference", slow, fast, ref)
	}
}

func TestBalloonChurnPressuresUsher(t *testing.T) {
	// A cluster with headroom: without the balloon, nothing crosses the
	// usher's high-water mark; with a mid-run footprint explosion on the
	// loaded node, ushering must evacuate.
	spec := small()
	spec.NodeMemMB = 24 * spec.MeanFootprintMB
	calm := MustRun(spec, 42)
	calmUsher, ok := calm.Scheme(sched.NameMemUsher)
	if !ok {
		t.Fatal("no mem-usher row")
	}
	if calmUsher.Migrations != 0 {
		t.Fatalf("headroom cluster ushered %d times without pressure", calmUsher.Migrations)
	}

	spec.Churn = []ChurnEvent{
		{At: 2 * simtime.Second, Kind: ChurnBalloon, Node: 0, Factor: 16},
		{At: 3 * simtime.Second, Kind: ChurnBalloon, Node: 0, Factor: 4},
	}
	ballooned := MustRun(spec, 42)
	usher, ok := ballooned.Scheme(sched.NameMemUsher)
	if !ok {
		t.Fatal("no mem-usher row")
	}
	if usher.Migrations == 0 {
		t.Fatal("balloon churn triggered no ushering")
	}
	if calm.Render() == ballooned.Render() {
		t.Fatal("balloon churn changed nothing")
	}
	if spec.Fingerprint() == small().Fingerprint() {
		t.Fatal("balloon churn missing from the fingerprint")
	}
}

func TestBalloonValidation(t *testing.T) {
	bad := []Spec{
		{Churn: []ChurnEvent{{Kind: ChurnBalloon, Node: 99, Factor: 2}}},
		{Churn: []ChurnEvent{{Kind: ChurnBalloon, Node: 0, Factor: 0}}},
		{Churn: []ChurnEvent{{Kind: ChurnBalloon, Node: 0, Factor: -1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad balloon spec %d accepted: %+v", i, s)
		}
	}
	ok := small()
	ok.Churn = []ChurnEvent{{At: simtime.Second, Kind: ChurnBalloon, Node: 1, Factor: 2.5}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid balloon rejected: %v", err)
	}
}

// TestValidateBoundsNodeMemory: a spec whose per-node resident memory
// could pass the 32 bits the gossip plane carries is rejected — every
// process on one node at 1.5× the mean footprint, bursts included, grown
// by each balloon factor above 1 — and one just inside the bound is not.
func TestValidateBoundsNodeMemory(t *testing.T) {
	at := func(procs int, fp int64, churn ...ChurnEvent) Spec {
		s := small()
		s.Procs, s.MeanFootprintMB, s.NodeMemMB, s.Churn = procs, fp, 1<<20, churn
		return s
	}
	// 1024 processes × 1.5 × 1398101 MB is 2147483136 MB, inside MaxInt32.
	const procs, fp = 1024, 1398101
	burst := ChurnEvent{At: simtime.Second, Kind: ChurnBurst, Node: 0, Procs: 1}
	for _, s := range []Spec{
		at(procs, fp),
		at(procs, fp, ChurnEvent{At: simtime.Second, Kind: ChurnBalloon, Node: 0, Factor: 0.5}),
	} {
		if err := s.Validate(); err != nil {
			t.Fatalf("spec inside the bound rejected: %v", err)
		}
	}
	for i, s := range []Spec{
		at(procs, fp+1),
		at(procs-1, fp, burst, burst),
		at(procs, fp, ChurnEvent{At: simtime.Second, Kind: ChurnBalloon, Node: 0, Factor: 1.001}),
		at(procs/2, fp, ChurnEvent{At: simtime.Second, Kind: ChurnBalloon, Node: 1, Factor: 1.5},
			ChurnEvent{At: 2 * simtime.Second, Kind: ChurnBalloon, Node: 1, Factor: 1.5}),
		at(2, math.MaxInt64/4),
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d past the 32-bit memory bound accepted", i)
		}
	}
}

// TestValidateBoundsGossipPlane: a switched fabric runs one gossip daemon
// per node, and the plane serves at most infod.MaxGossipNodes of them, so
// a two-tier spec one node past it is rejected; the star runs no gossip
// and takes it.
func TestValidateBoundsGossipPlane(t *testing.T) {
	s := small()
	s.Nodes = infod.MaxGossipNodes + 1
	s.Procs = s.Nodes
	s.Fabric = FabricSpec{Topology: fabric.KindTwoTier}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "gossip plane") {
		t.Fatalf("%d-node two-tier spec: Validate = %v, want the gossip-plane bound", s.Nodes, err)
	}
	s.Nodes--
	if err := s.Validate(); err != nil {
		t.Fatalf("%d-node two-tier spec rejected: %v", s.Nodes, err)
	}
	s.Nodes++
	s.Fabric = FabricSpec{Topology: fabric.KindStar}
	if err := s.Validate(); err != nil {
		t.Fatalf("%d-node star spec rejected: %v", s.Nodes, err)
	}
}

func TestLoadVectorLenFromSpec(t *testing.T) {
	// The sample size l is behaviour-bearing and fingerprinted: a 1-entry
	// vector decides with far less knowledge than the built-in default.
	wide := small()
	wide.Procs = 48
	narrow := wide
	narrow.LoadVectorLen = 1
	if wide.Fingerprint() == narrow.Fingerprint() {
		t.Fatal("LoadVectorLen missing from the fingerprint")
	}
	if MustRun(wide, 42).Render() == MustRun(narrow, 42).Render() {
		t.Fatal("shrinking the load vector changed nothing")
	}
	// l >= Nodes-1 means full knowledge — the load-vector policy then
	// behaves like the classic target and still migrates.
	full := wide
	full.LoadVectorLen = wide.Nodes
	lv, ok := MustRun(full, 42).Scheme(sched.NameLoadVector)
	if !ok {
		t.Fatal("no load-vector row")
	}
	if lv.Migrations == 0 {
		t.Fatal("full-knowledge load vector migrated nothing on a skewed burst")
	}
	bad := wide
	bad.LoadVectorLen = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative sample size accepted")
	}
}

func TestFabricSpecCanonicalAndValidate(t *testing.T) {
	// The star zeroes the block (the legacy fixed point).
	star := FabricSpec{Topology: fabric.KindStar, RackSize: 8, GossipFanout: 5}
	if got := star.Canonical(); got != (FabricSpec{}) {
		t.Fatalf("star canonicalised to %+v, want the zero block", got)
	}
	// Two-tier resolves shape and gossip defaults; flat drops the shape.
	tt := FabricSpec{Topology: fabric.KindTwoTier}.Canonical()
	if tt.RackSize != 16 || tt.Oversub != 4 || tt.GossipFanout != 2 || tt.GossipPeriod != 2*simtime.Second {
		t.Fatalf("two-tier defaults wrong: %+v", tt)
	}
	fl := FabricSpec{Topology: fabric.KindFlat, RackSize: 9, Oversub: 2}.Canonical()
	if fl.RackSize != 0 || fl.Oversub != 0 {
		t.Fatalf("flat kept two-tier shape fields: %+v", fl)
	}
	for _, f := range []FabricSpec{
		{Topology: fabric.KindTwoTier, RackSize: 1},
		{Topology: fabric.KindTwoTier, Oversub: -1},
		{Topology: fabric.KindFlat, GossipFanout: 65},
		{Topology: fabric.KindFlat, GossipPeriod: -simtime.Second},
		{Topology: fabric.Kind(99)},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("bad fabric block accepted: %+v", f)
		}
	}
	// Fixed point through Spec.Canonical too.
	s := small()
	s.Fabric = FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4}
	if s.Canonical().Fingerprint() != s.Canonical().Canonical().Fingerprint() {
		t.Fatal("fabric block breaks the Canonical fixed point")
	}
}

func TestNewPresetsShape(t *testing.T) {
	rack, err := Preset("rack-farm")
	if err != nil {
		t.Fatal(err)
	}
	if rack.Nodes != 512 || rack.Procs != 2048 {
		t.Fatalf("rack-farm is %dn/%dp, want 512/2048", rack.Nodes, rack.Procs)
	}
	if rack.Fabric.Topology != fabric.KindTwoTier || rack.Fabric.RackSize != 32 {
		t.Fatalf("rack-farm fabric %+v, want two-tier with 32-node racks", rack.Fabric)
	}
	mesh, err := Preset("gossip-mesh")
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Fabric.Topology != fabric.KindFlat || mesh.Fabric.GossipFanout != 3 {
		t.Fatalf("gossip-mesh fabric %+v, want flat with fanout 3", mesh.Fabric)
	}
}

func TestMixTraceCoversWorkingSet(t *testing.T) {
	// Sequential and blocked mixes touch every working-set page exactly
	// once; random stays within bounds.
	for _, k := range []MixKind{MixSequential, MixBlocked, MixSmallWS, MixRandom} {
		src := k.Trace(64, 3)()
		seen := make(map[int64]int)
		n := 0
		for {
			ref, ok := src.Next()
			if !ok {
				break
			}
			if ref.Page < 0 || ref.Page >= 64 {
				t.Fatalf("%v: page %d out of the 64-page working set", k, ref.Page)
			}
			seen[int64(ref.Page)]++
			n++
		}
		if n == 0 {
			t.Fatalf("%v: empty trace", k)
		}
		if k != MixRandom && len(seen) != 64 {
			t.Fatalf("%v: touched %d of 64 pages", k, len(seen))
		}
	}
}
