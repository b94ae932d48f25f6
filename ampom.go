// Package ampom is a reproduction of "Lightweight Process Migration and
// Memory Prefetching in openMosix" (Ho, Wang, Lau — IPDPS 2008): the AMPoM
// adaptive prefetching algorithm, the lightweight migration mechanism it
// rides on, and the openMosix-style substrate (deterministic cluster
// simulator, remote paging protocol, oM_infoD monitoring daemon, HPCC
// workload models) needed to regenerate every figure of the paper's
// evaluation.
//
// This package is the public facade: it re-exports the stable surface of
// the internal packages so applications can be written against one import.
//
//	w, _ := ampom.BuildWorkload(ampom.Entry{Kernel: ampom.STREAM, MemoryMB: 64}, 1)
//	r, _ := ampom.Run(ampom.RunConfig{Workload: w, Scheme: ampom.SchemeAMPoM})
//	fmt.Println(r.Freeze, r.Total, r.HardFaults)
//
// The deeper layers remain available for advanced use: the experiment
// harness regenerates paper figures (NewCampaign), and the live emulation
// (internal/emu) migrates real byte pages between TCP endpoints.
package ampom

import (
	"ampom/internal/campaign"
	"ampom/internal/clusterd"
	"ampom/internal/core"
	"ampom/internal/emu"
	"ampom/internal/fabric"
	"ampom/internal/harness"
	"ampom/internal/hpcc"
	"ampom/internal/memory"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
	"ampom/internal/resultstore"
	"ampom/internal/scenario"
	"ampom/internal/sched"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// Core aliases: virtual time and the AMPoM algorithm.
type (
	// Time is an instant of virtual time (nanoseconds).
	Time = simtime.Time
	// Duration is a span of virtual time (nanoseconds).
	Duration = simtime.Duration
	// PageNum identifies a page within a process address space.
	PageNum = memory.PageNum
	// PrefetcherConfig tunes the AMPoM algorithm (window length, dmax,
	// prefetch cap, read-ahead baseline).
	PrefetcherConfig = core.Config
	// Prefetcher is the per-process AMPoM engine.
	Prefetcher = core.Prefetcher
	// Analysis is one per-fault AMPoM decision. Its Pivots and Zone stay
	// valid only until the next Analyze on the same Prefetcher; copy them
	// to keep them longer.
	Analysis = core.Analysis
	// Estimates carries the monitoring daemon's measurements into Eq. 3.
	Estimates = core.Estimates
)

// Workload aliases: the HPCC kernel models of the paper's evaluation.
type (
	// Kernel identifies an HPCC kernel (DGEMM, STREAM, RandomAccess, FFT).
	Kernel = hpcc.Kernel
	// Entry is one Table 1 row: kernel, problem size, memory footprint.
	Entry = hpcc.Entry
	// Workload is a built kernel run: layout, reference stream, compute.
	Workload = hpcc.Workload
)

// The four kernels.
const (
	DGEMM        = hpcc.DGEMM
	STREAM       = hpcc.STREAM
	RandomAccess = hpcc.RandomAccess
	FFT          = hpcc.FFT
)

// Experiment aliases: running migrations and reading results.
type (
	// Scheme selects the migration mechanism.
	Scheme = migrate.Scheme
	// RunConfig describes one migration experiment.
	RunConfig = migrate.RunConfig
	// Result carries a run's timings and fault census.
	Result = migrate.Result
	// NetworkProfile describes a link (latency, bandwidth).
	NetworkProfile = netmodel.Profile
)

// The three migration schemes of the paper, plus the two baselines its
// Figure 2 and related work describe.
const (
	SchemeOpenMosix     = migrate.OpenMosix
	SchemeNoPrefetch    = migrate.NoPrefetch
	SchemeAMPoM         = migrate.AMPoM
	SchemeFFAFileServer = migrate.FFAFileServer
	SchemePrecopy       = migrate.Precopy
)

// Schemes lists the paper's three evaluated schemes; AllSchemes adds the
// FFA-with-file-server and precopy baselines.
func Schemes() []Scheme    { return migrate.Schemes() }
func AllSchemes() []Scheme { return migrate.AllSchemes() }

// Campaign aliases: regenerating the paper's tables and figures.
type (
	// Campaign memoises an experiment matrix and renders figures.
	Campaign = harness.Matrix
	// CampaignConfig scopes a campaign (scale divisor, seed, worker count).
	CampaignConfig = harness.Config
	// FigureTable is a rendered experiment artefact.
	FigureTable = harness.Table
	// FigureArtefact names one table of the evaluation (Table 1, Figures
	// 4–11, the ablations); Campaign.Render renders artefacts by name.
	FigureArtefact = harness.Artefact
)

// Campaign-engine aliases: the parallel worker pool underneath the figure
// harness, usable directly for custom experiment sweeps.
type (
	// CampaignJob identifies one experiment cell (kernel, footprint,
	// scheme, network, prefetcher configuration).
	CampaignJob = campaign.Job
	// CampaignEngine fans jobs across a worker pool with a deterministic,
	// concurrency-safe result cache.
	CampaignEngine = campaign.Engine
	// CampaignOptions configures a CampaignEngine.
	CampaignOptions = campaign.Options
	// CampaignProgress is one progress/ETA sample of a running batch.
	CampaignProgress = campaign.Progress
	// CampaignRunError aggregates the failures of a campaign batch.
	CampaignRunError = campaign.RunError[campaign.Job]
	// CampaignScenarioProgress is one per-policy progress sample of an
	// executing scenario job (CampaignOptions.OnScenarioProgress).
	CampaignScenarioProgress = campaign.ScenarioProgress
)

// NewCampaignEngine returns a parallel experiment engine. Per-job seeds are
// derived from the job key, so any worker count produces identical results.
func NewCampaignEngine(opts CampaignOptions) *CampaignEngine { return campaign.New(opts) }

// DeriveJobSeed exposes the engine's seed derivation: a pure function of
// the campaign base seed and a job fingerprint.
func DeriveJobSeed(base uint64, fingerprint string) uint64 {
	return campaign.DeriveSeed(base, fingerprint)
}

// Result-store aliases: the persistent content-addressed cache behind the
// campaign engine (CampaignOptions.Store), the batch CLIs (-store) and
// the ampom-clusterd service.
type (
	// ResultStore maps campaign job fingerprints to report bytes on disk,
	// with atomic writes and per-cell integrity checks.
	ResultStore = resultstore.Store
	// ResultStoreStats counts a store's hits, misses, corruptions and
	// traffic.
	ResultStoreStats = resultstore.Stats
)

// OpenResultStore returns a store rooted at dir, creating it if needed.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// ResultStoreKey maps a job fingerprint to its content-addressed cell
// key — the job handle of the ampom-clusterd HTTP API.
func ResultStoreKey(fingerprint string) string { return resultstore.Key(fingerprint) }

// Campaign-service aliases: the long-lived HTTP daemon (ampom-clusterd)
// and its client (`ampom-cluster -server`).
type (
	// ClusterServer is the campaign service: submit specs, stream
	// progress, fetch byte-identical reports from the shared store.
	ClusterServer = clusterd.Server
	// ClusterServerConfig configures a ClusterServer.
	ClusterServerConfig = clusterd.Config
	// ClusterClient speaks the service's HTTP API.
	ClusterClient = clusterd.Client
	// ClusterJobStatus is one job's wire state (key, status, cached).
	ClusterJobStatus = clusterd.JobStatus
	// ClusterEvent is one line of a job's NDJSON event stream.
	ClusterEvent = clusterd.Event
	// ClusterDiffRequest asks the service to compare two completed jobs.
	ClusterDiffRequest = clusterd.DiffRequest
	// ClusterDiffResponse reports a server-side comparison.
	ClusterDiffResponse = clusterd.DiffResponse
	// ClusterStats is the service's counter snapshot (GET /v1/stats).
	ClusterStats = clusterd.Stats
)

// NewClusterServer returns a campaign service for the configuration.
func NewClusterServer(cfg ClusterServerConfig) (*ClusterServer, error) { return clusterd.New(cfg) }

// NewClusterClient returns a client for the service at baseURL.
func NewClusterClient(baseURL string) *ClusterClient { return clusterd.NewClient(baseURL) }

// NewPrefetcher returns an AMPoM engine for an address space of totalPages
// pages. A zero PrefetcherConfig takes the paper's defaults (l=20, dmax=4).
func NewPrefetcher(cfg PrefetcherConfig, totalPages int64) (*Prefetcher, error) {
	return core.New(cfg, totalPages)
}

// DefaultPrefetcherConfig returns the paper's AMPoM configuration.
func DefaultPrefetcherConfig() PrefetcherConfig { return core.DefaultConfig() }

// Catalogue returns the paper's Table 1 configurations.
func Catalogue() []Entry { return hpcc.Catalogue() }

// Kernels lists the four modelled HPCC kernels.
func Kernels() []Kernel { return hpcc.Kernels() }

// ParseKernel resolves a kernel name, ignoring case: DGEMM, STREAM,
// RandomAccess (also "ra" or "gups") or FFT.
func ParseKernel(name string) (Kernel, error) { return hpcc.ParseKernel(name) }

// BuildWorkload materialises a kernel run. MemoryMB must be set; seed makes
// stochastic kernels reproducible.
func BuildWorkload(e Entry, seed uint64) (*Workload, error) { return hpcc.Build(e, seed) }

// BuildWorkingSetWorkload builds the §5.6 modified DGEMM: allocMB allocated,
// wsMB actually worked on.
func BuildWorkingSetWorkload(allocMB, wsMB int64, seed uint64) (*Workload, error) {
	return hpcc.BuildWorkingSet(allocMB, wsMB, seed)
}

// ScaleEntry shrinks a Table 1 entry by an integer divisor for quick runs.
func ScaleEntry(e Entry, div int64) Entry { return hpcc.Scaled(e, div) }

// Run executes one migration experiment on the simulated cluster.
func Run(cfg RunConfig) (*Result, error) { return migrate.Run(cfg) }

// FastEthernet returns the Gideon 300 testbed's network profile.
func FastEthernet() NetworkProfile { return netmodel.FastEthernet() }

// Broadband returns the paper's §5.5 tc-shaped 6 Mb/s / 2 ms profile.
func Broadband() NetworkProfile { return netmodel.Broadband() }

// ShapeNetwork applies tc-style traffic shaping to a profile.
func ShapeNetwork(p NetworkProfile, bitsPerSecond float64, oneWayLatency Duration) NetworkProfile {
	return netmodel.Shape(p, bitsPerSecond, oneWayLatency)
}

// NewCampaign returns an experiment campaign that regenerates the paper's
// tables and figures. Scale 1 reproduces paper-scale runs; larger divisors
// shrink footprints for quick exploration.
func NewCampaign(cfg CampaignConfig) *Campaign { return harness.NewMatrix(cfg) }

// FigureArtefacts lists every artefact a Campaign renders, in output
// order: Table 1 and Figures 4–11, then the ablations.
func FigureArtefacts() []FigureArtefact { return harness.Artefacts() }

// Locality measures a workload's page-level spatial and temporal locality
// (the Figure 4 axes).
func Locality(w *Workload) (spatial, temporal float64) { return hpcc.Locality(w) }

// Load-balancing aliases (the paper's §7 outlook): the open BalancerPolicy
// interface plus a sorted, deterministic registry, so new policies plug in
// beside the built-in six. Policies run inside cluster scenarios: name
// them in a ScenarioSpec's Policies and call RunScenario.
type (
	// BalancerPolicy decides when and where the load balancer migrates.
	// Implement it (Name, Mechanism, ShouldMigrate) and register with
	// RegisterBalancerPolicy to add a policy to every report.
	BalancerPolicy = sched.BalancerPolicy
	// Mechanism is how a policy's migrations move a process; it prices
	// both the policy's decision (BalancerView.Clears) and the migration a
	// scenario charges.
	Mechanism = sched.Mechanism
	// BalancerView is the cluster state a policy decides on.
	BalancerView = sched.View
	// BalancerNodeView is one node of a BalancerView.
	BalancerNodeView = sched.NodeView
	// BalancerProcView is the migration candidate a policy is asked about.
	BalancerProcView = sched.ProcView
)

// The built-in balancer policy names — the registry keys reports are keyed
// by, in registry-sorted order.
const (
	PolicyAMPoM       = sched.NameAMPoM
	PolicyLoadVector  = sched.NameLoadVector
	PolicyMemUsher    = sched.NameMemUsher
	PolicyNoMigration = sched.NameNoMigration
	PolicyOpenMosix   = sched.NameOpenMosix
	PolicyQueueGossip = sched.NameQueueGossip
)

// The migration mechanisms a policy declares: the paper's two, and the
// no-migration baseline's zero value, whose only migrations are crash
// evacuations (lightweight payload, no MPT install, no paging after
// resume).
const (
	MechanismEvacuationOnly = sched.EvacuationOnly
	MechanismFullCopy       = sched.FullCopy
	MechanismLightweight    = sched.Lightweight
)

// RegisterBalancerPolicy adds a policy to the registry; registered
// policies appear in default scenario reports and policy sweeps.
func RegisterBalancerPolicy(p BalancerPolicy) error { return sched.Register(p) }

// BalancerPolicyNames lists every registered policy name, sorted.
func BalancerPolicyNames() []string { return sched.Names() }

// LookupBalancerPolicy returns the policy registered under name.
func LookupBalancerPolicy(name string) (BalancerPolicy, bool) { return sched.Lookup(name) }

// BalancerPolicies resolves registry names to policies, preserving order.
func BalancerPolicies(names ...string) ([]BalancerPolicy, error) { return sched.ByNames(names) }

// Cluster-scenario aliases: declarative multi-node runs composing the event
// engine, cluster nodes, infod dissemination, the load balancer and the
// AMPoM prefetcher.
type (
	// ScenarioSpec declares one cluster scenario (nodes, heterogeneity,
	// arrivals, trace mixes, network tier, churn).
	ScenarioSpec = scenario.Spec
	// ScenarioReport is the cluster-level outcome under every policy.
	ScenarioReport = scenario.Report
	// ScenarioSchemeStats is one policy's row of a scenario report.
	ScenarioSchemeStats = scenario.SchemeStats
	// ScenarioMix names a per-process page-reference shape.
	ScenarioMix = scenario.MixKind
	// ScenarioMixWeight weights one mix inside a scenario workload.
	ScenarioMixWeight = scenario.MixWeight
	// ScenarioChurn is one scripted mid-run disturbance.
	ScenarioChurn = scenario.ChurnEvent
	// ScenarioJob wraps a scenario as a campaign job (fingerprinted,
	// single-flight, parallel-safe) for CampaignEngine.RunScenario(s).
	ScenarioJob = campaign.ScenarioJob
	// ScenarioFabric selects a scenario's interconnect topology (star,
	// two-tier, flat) and gossip dissemination parameters.
	ScenarioFabric = scenario.FabricSpec
	// FabricTopology names an interconnect topology.
	FabricTopology = fabric.Kind
	// FabricTierStats is one interconnect tier's utilisation row of a
	// scenario report (switched fabrics only).
	FabricTierStats = fabric.TierStats
)

// The built-in fabric topologies: the legacy single-hub star (the default,
// with paired infod daemons), the switched two-tier rack fabric and the
// flat full-bisection fabric (both monitored by decentralised gossip).
const (
	FabricStar    = fabric.KindStar
	FabricTwoTier = fabric.KindTwoTier
	FabricFlat    = fabric.KindFlat
)

// FabricTopologyNames lists the built-in topology names.
func FabricTopologyNames() []string { return fabric.KindNames() }

// ParseFabricTopology resolves a topology name ("star", "two-tier",
// "flat"); the empty string is the star default.
func ParseFabricTopology(s string) (FabricTopology, error) { return fabric.ParseKind(s) }

// The scenario reference mixes.
const (
	MixSequential = scenario.MixSequential
	MixBlocked    = scenario.MixBlocked
	MixRandom     = scenario.MixRandom
	MixSmallWS    = scenario.MixSmallWS
)

// ScenarioPresetNames lists the built-in scenarios of cmd/ampom-cluster.
func ScenarioPresetNames() []string { return scenario.PresetNames() }

// ScenarioChurnKindNames lists every churn-event kind a spec's churn
// timeline accepts, in registry order — the names the JSON codec reads and
// writes.
func ScenarioChurnKindNames() []string { return scenario.ChurnKindNames() }

// ScenarioPreset returns a named built-in scenario.
func ScenarioPreset(name string) (ScenarioSpec, error) { return scenario.Preset(name) }

// ScenarioPresets returns every built-in scenario.
func ScenarioPresets() []ScenarioSpec { return scenario.Presets() }

// RunScenario executes one cluster scenario under the spec's policy set
// (every registered balancing policy by default). It is a pure function of
// (spec, seed): equal inputs render byte-identical reports.
func RunScenario(spec ScenarioSpec, seed uint64) (*ScenarioReport, error) {
	return scenario.Run(spec, seed)
}

// RunScenarioShards is RunScenario with the event engine sharded per rack
// band across the given number of conservative-window workers (two-tier
// fabrics only; clamped to the rack count, and any other topology runs
// sequentially). Sharding is purely an execution strategy: every shard
// count renders a byte-identical report.
func RunScenarioShards(spec ScenarioSpec, seed uint64, shards int) (*ScenarioReport, error) {
	return scenario.RunShards(spec, seed, shards)
}

// Scenario I/O: specs are versioned JSON documents (unknown fields
// rejected, omitted fields defaulted) and reports encode to JSON and CSV,
// so scenarios and their outcomes are shareable on-disk artefacts.

// LoadScenarioSpec reads a spec file written by SaveScenarioSpec (or by
// hand); the result is canonical and validated.
func LoadScenarioSpec(path string) (ScenarioSpec, error) { return scenario.LoadSpec(path) }

// SaveScenarioSpec writes the canonical form of the spec as versioned JSON.
func SaveScenarioSpec(path string, s ScenarioSpec) error { return scenario.SaveSpec(path, s) }

// DecodeScenarioSpec parses a versioned JSON spec document.
func DecodeScenarioSpec(data []byte) (ScenarioSpec, error) { return scenario.DecodeSpec(data) }

// EncodeScenarioSpec renders the canonical spec as versioned JSON.
func EncodeScenarioSpec(s ScenarioSpec) ([]byte, error) { return scenario.EncodeSpec(s) }

// ScenarioReportsJSON renders a batch of reports as one JSON array
// (nil slots from failed runs are skipped).
func ScenarioReportsJSON(reports []*ScenarioReport) ([]byte, error) {
	return scenario.ReportsJSON(reports)
}

// ScenarioReportsCSV renders a batch of reports as one CSV document with a
// single header; the scenario and seed columns distinguish the runs.
func ScenarioReportsCSV(reports []*ScenarioReport) string { return scenario.ReportsCSV(reports) }

// DecodeScenarioReports parses a JSON report artefact (a single report
// object or an array) back into reports — the decoding half of the report
// I/O round trip.
func DecodeScenarioReports(data []byte) ([]*ScenarioReport, error) {
	return scenario.DecodeReports(data)
}

// LoadScenarioReports reads a saved report artefact from disk.
func LoadScenarioReports(path string) ([]*ScenarioReport, error) { return scenario.LoadReports(path) }

// DiffScenarioReports compares two report artefacts and returns one line
// per divergence; empty means the recorded runs are identical. Saved
// artefacts thereby become regression gates (ampom-cluster -diff).
func DiffScenarioReports(a, b []byte) ([]string, error) {
	return scenario.DiffReportsData(a, b, scenario.DiffOptions{})
}

// DiffScenarioReportFiles compares two saved report artefacts by path.
func DiffScenarioReportFiles(pathA, pathB string) ([]string, error) {
	return scenario.DiffReportFiles(pathA, pathB, scenario.DiffOptions{})
}

// ScenarioDiffOptions tunes report comparison: per-column relative
// epsilons for the float columns (counts always compare exactly) and the
// per-column summary mode. The zero value is the exact gate.
type ScenarioDiffOptions = scenario.DiffOptions

// DiffScenarioReportsOpts compares two report artefacts under explicit
// comparison options.
func DiffScenarioReportsOpts(a, b []byte, opts ScenarioDiffOptions) ([]string, error) {
	return scenario.DiffReportsData(a, b, opts)
}

// DiffScenarioReportFilesOpts compares two saved report artefacts by path
// under explicit comparison options.
func DiffScenarioReportFilesOpts(pathA, pathB string, opts ScenarioDiffOptions) ([]string, error) {
	return scenario.DiffReportFiles(pathA, pathB, opts)
}

// LiveProgramFor returns the scenario mix's page-reference program over
// the given footprint, repeated passes times: the simulated scenarios and
// the real-TCP livecluster example replay one access shape. Each pass
// touches every page of the footprint once, in the same order (the mix's
// working-set fraction is a simulation-side concern).
func LiveProgramFor(mix ScenarioMix, pages, passes int, seed uint64) LiveProgram {
	return mix.CoverProgram(int64(pages), seed).Repeat(max(passes, 1))
}

// Live emulation aliases: real TCP nodes moving real byte pages.
type (
	// LiveNode is a TCP-listening emulated cluster node.
	LiveNode = emu.Node
	// LiveProc is a process hosted on a LiveNode.
	LiveProc = emu.Proc
	// LiveProgram is the page-reference program a live process runs.
	LiveProgram = trace.Program
	// LiveMigrateOptions configures a live migration.
	LiveMigrateOptions = emu.MigrateOptions
	// LiveStats counts a live migrant's paging activity.
	LiveStats = emu.Stats
)

// ListenLiveNode starts a live emulation node on addr.
func ListenLiveNode(name, addr string) (*LiveNode, error) { return emu.Listen(name, addr) }

// SpawnLiveProc creates a process with real byte pages on a live node,
// running program.
func SpawnLiveProc(n *LiveNode, pid, pages int, program LiveProgram, seed uint64) *LiveProc {
	return emu.Spawn(n, pid, pages, program, seed)
}

// MigrateLive performs a live migration over TCP and blocks until the
// migrant finishes, returning its final memory checksum and paging
// statistics. Neither node holds the process afterwards.
func MigrateLive(p *LiveProc, destAddr string, opts LiveMigrateOptions) (uint64, LiveStats, error) {
	return emu.Migrate(p, destAddr, opts)
}
