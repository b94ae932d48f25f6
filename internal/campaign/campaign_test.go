package campaign

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ampom/internal/core"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
)

func job(k hpcc.Kernel, mb int64, s migrate.Scheme) Job {
	return Job{Kernel: k, MemoryMB: mb, Scheme: s}
}

func TestFingerprintTable(t *testing.T) {
	fe := netmodel.FastEthernet()
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{
			name: "defaults normalised",
			job:  job(hpcc.STREAM, 8, migrate.OpenMosix),
			want: "kernel=STREAM|mb=8|alloc=0|scheme=openMosix|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0",
		},
		{
			name: "explicit fast ethernet equals zero network",
			job:  Job{Kernel: hpcc.STREAM, MemoryMB: 8, Scheme: migrate.OpenMosix, Network: fe},
			want: "kernel=STREAM|mb=8|alloc=0|scheme=openMosix|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0",
		},
		{
			name: "ampom carries its config",
			job:  job(hpcc.DGEMM, 35, migrate.AMPoM),
			want: "kernel=DGEMM|mb=35|alloc=0|scheme=AMPoM|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0|ampom=l20,d4,cap128,bl0.6",
		},
		{
			name: "non-ampom scheme drops prefetcher config",
			job:  Job{Kernel: hpcc.DGEMM, MemoryMB: 35, Scheme: migrate.NoPrefetch, AMPoM: core.Config{WindowLen: 80}},
			want: "kernel=DGEMM|mb=35|alloc=0|scheme=NoPrefetch|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0",
		},
		{
			name: "negative baseline canonicalised to disabled sentinel",
			job:  Job{Kernel: hpcc.RandomAccess, MemoryMB: 32, Scheme: migrate.AMPoM, AMPoM: core.Config{BaselineScore: -0.5}},
			want: "kernel=RandomAccess|mb=32|alloc=0|scheme=AMPoM|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0|ampom=l20,d4,cap128,bl-1",
		},
		{
			name: "working set variant",
			job:  Job{Kernel: hpcc.DGEMM, MemoryMB: 7, AllocMB: 35, Scheme: migrate.AMPoM},
			want: "kernel=DGEMM|mb=7|alloc=35|scheme=AMPoM|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0|ampom=l20,d4,cap128,bl0.6",
		},
		{
			name: "working set forces DGEMM regardless of requested kernel",
			job:  Job{Kernel: hpcc.STREAM, MemoryMB: 7, AllocMB: 35, Scheme: migrate.AMPoM},
			want: "kernel=DGEMM|mb=7|alloc=35|scheme=AMPoM|net=fast-ethernet-100Mbps/100000/1.136e+07|load=0|ampom=l20,d4,cap128,bl0.6",
		},
		{
			name: "broadband with background load",
			job:  Job{Kernel: hpcc.FFT, MemoryMB: 16, Scheme: migrate.NoPrefetch, Network: netmodel.Broadband(), BackgroundLoad: 0.5},
			want: "kernel=FFT|mb=16|alloc=0|scheme=NoPrefetch|net=broadband-6Mbps/2000000/750000|load=0.5",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.job.Fingerprint(); got != c.want {
				t.Errorf("fingerprint = %q, want %q", got, c.want)
			}
		})
	}
}

// TestFingerprintCoversAllFields pins the field counts of every struct the
// fingerprint enumerates by hand. Adding a field to any of them without
// extending Job.Fingerprint would silently merge distinct experiments into
// one cache cell — this test turns that into a loud failure.
func TestFingerprintCoversAllFields(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"campaign.Job", reflect.TypeOf(Job{}), 7},
		{"core.Config", reflect.TypeOf(core.Config{}), 4},
		{"netmodel.Profile", reflect.TypeOf(netmodel.Profile{}), 3},
	} {
		if got := c.typ.NumField(); got != c.want {
			t.Errorf("%s now has %d fields (was %d): extend Job.Fingerprint (and Job.normalised) first, then update this count",
				c.name, got, c.want)
		}
	}
}

func TestWorkloadFingerprintIgnoresSchemeAndNetwork(t *testing.T) {
	base := Job{Kernel: hpcc.DGEMM, MemoryMB: 35, Scheme: migrate.AMPoM}
	variants := []Job{
		{Kernel: hpcc.DGEMM, MemoryMB: 35, Scheme: migrate.OpenMosix},
		{Kernel: hpcc.DGEMM, MemoryMB: 35, Scheme: migrate.NoPrefetch, Network: netmodel.Broadband()},
		{Kernel: hpcc.DGEMM, MemoryMB: 35, Scheme: migrate.AMPoM, AMPoM: core.Config{WindowLen: 80}},
		{Kernel: hpcc.DGEMM, MemoryMB: 35, Scheme: migrate.AMPoM, BackgroundLoad: 0.3},
	}
	for _, v := range variants {
		if v.WorkloadFingerprint() != base.WorkloadFingerprint() {
			t.Errorf("workload fingerprint of %v differs from base: %q vs %q",
				v, v.WorkloadFingerprint(), base.WorkloadFingerprint())
		}
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("full fingerprint of %v should differ from base", v)
		}
	}
	other := Job{Kernel: hpcc.DGEMM, MemoryMB: 36, Scheme: migrate.AMPoM}
	if other.WorkloadFingerprint() == base.WorkloadFingerprint() {
		t.Error("different footprint must change the workload fingerprint")
	}
}

func TestDeriveSeed(t *testing.T) {
	cases := []struct {
		name         string
		baseA, baseB uint64
		fpA, fpB     string
		wantEqual    bool
	}{
		{"same inputs same seed", 42, 42, "a", "a", true},
		{"different fingerprints diverge", 42, 42, "a", "b", false},
		{"different base seeds diverge", 42, 43, "a", "a", false},
		{"empty fingerprint still mixes base", 1, 2, "", "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := DeriveSeed(c.baseA, c.fpA), DeriveSeed(c.baseB, c.fpB)
			if (a == b) != c.wantEqual {
				t.Errorf("DeriveSeed(%d,%q)=%d vs DeriveSeed(%d,%q)=%d, wantEqual=%v",
					c.baseA, c.fpA, a, c.baseB, c.fpB, b, c.wantEqual)
			}
			if a == 0 || b == 0 {
				t.Error("derived seed must never be zero")
			}
		})
	}
}

func TestRunMemoises(t *testing.T) {
	e := New(Options{Workers: 1, BaseSeed: 7})
	j := job(hpcc.STREAM, 8, migrate.AMPoM)
	a, err := e.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Run did not hit the cache")
	}
	if e.Executed() != 1 || e.Requests() != 2 {
		t.Fatalf("executed=%d requests=%d, want 1/2", e.Executed(), e.Requests())
	}
}

// TestSingleFlight hammers one job from many goroutines: the simulation
// must run exactly once and every caller must observe the same result.
// Run with -race to check the cache synchronisation.
func TestSingleFlight(t *testing.T) {
	e := New(Options{Workers: 8, BaseSeed: 7})
	j := job(hpcc.RandomAccess, 8, migrate.AMPoM)
	const n = 16
	results := make([]*migrate.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Run(j)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if e.Executed() != 1 {
		t.Fatalf("executed %d times, want 1", e.Executed())
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d saw a different result pointer", i)
		}
	}
}

// TestRunAllSharesCache fans a batch with duplicates and overlapping cells
// across the pool; the engine must execute each distinct fingerprint once.
func TestRunAllSharesCache(t *testing.T) {
	e := New(Options{Workers: 8, BaseSeed: 7})
	jobs := []Job{
		job(hpcc.STREAM, 8, migrate.AMPoM),
		job(hpcc.STREAM, 8, migrate.OpenMosix),
		job(hpcc.STREAM, 8, migrate.AMPoM), // duplicate
		job(hpcc.DGEMM, 8, migrate.AMPoM),
		{Kernel: hpcc.STREAM, MemoryMB: 8, Scheme: migrate.AMPoM, Network: netmodel.FastEthernet()}, // normalises to a duplicate
	}
	res, err := e.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
	}
	if e.Executed() != 3 {
		t.Fatalf("executed %d distinct jobs, want 3", e.Executed())
	}
	if res[0] != res[2] || res[0] != res[4] {
		t.Fatal("duplicate jobs did not share one result")
	}
}

func TestRunAllAggregatesErrors(t *testing.T) {
	e := New(Options{Workers: 4, BaseSeed: 7})
	jobs := []Job{
		job(hpcc.STREAM, 8, migrate.AMPoM),
		{Kernel: hpcc.DGEMM, MemoryMB: 4, AllocMB: 2, Scheme: migrate.AMPoM}, // ws > alloc: invalid
		{Kernel: hpcc.STREAM, MemoryMB: 0, Scheme: migrate.AMPoM},            // no footprint: invalid
		job(hpcc.FFT, 8, migrate.OpenMosix),
	}
	res, err := e.RunAll(jobs)
	if err == nil {
		t.Fatal("want aggregated error")
	}
	var re *RunError[Job]
	if !errors.As(err, &re) {
		t.Fatalf("error type %T, want *RunError[Job]", err)
	}
	if len(re.Failures) != 2 || re.Total != len(jobs) {
		t.Fatalf("failures=%d total=%d, want 2/%d: %v", len(re.Failures), re.Total, len(jobs), err)
	}
	if res[0] == nil || res[3] == nil {
		t.Fatal("healthy jobs must still produce results")
	}
	if res[1] != nil || res[2] != nil {
		t.Fatal("failed jobs must leave nil slots")
	}
	if !strings.Contains(err.Error(), "2/4") {
		t.Fatalf("error summary %q lacks failure count", err)
	}
}

func TestRunAllProgress(t *testing.T) {
	var mu sync.Mutex
	var samples []Progress
	e := New(Options{
		Workers:  4,
		BaseSeed: 7,
		OnProgress: func(p Progress) {
			mu.Lock()
			samples = append(samples, p)
			mu.Unlock()
		},
	})
	jobs := []Job{
		job(hpcc.STREAM, 8, migrate.AMPoM),
		job(hpcc.STREAM, 8, migrate.OpenMosix),
		{Kernel: hpcc.STREAM, MemoryMB: 0, Scheme: migrate.AMPoM}, // fails
	}
	_, _ = e.RunAll(jobs)
	if len(samples) != len(jobs) {
		t.Fatalf("progress samples = %d, want %d", len(samples), len(jobs))
	}
	for i, p := range samples {
		if p.Done != i+1 {
			t.Fatalf("sample %d: Done=%d, want %d (monotonic)", i, p.Done, i+1)
		}
		if p.Total != len(jobs) {
			t.Fatalf("sample %d: Total=%d", i, p.Total)
		}
	}
	final := samples[len(samples)-1]
	if final.Failed != 1 || final.ETA != 0 {
		t.Fatalf("final sample = %+v, want Failed=1 ETA=0", final)
	}
}

// TestParallelMatchesSequential is the engine-level determinism guarantee:
// the same batch through 1 worker and through 8 workers must produce
// value-identical results for every job.
func TestParallelMatchesSequential(t *testing.T) {
	var jobs []Job
	for _, k := range hpcc.Kernels() {
		for _, s := range migrate.Schemes() {
			jobs = append(jobs, job(k, 8, s))
		}
	}
	seq := New(Options{Workers: 1, BaseSeed: 11})
	par := New(Options{Workers: 8, BaseSeed: 11})
	sres, err := seq.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(*sres[i], *pres[i]) {
			t.Fatalf("job %v: sequential and parallel results differ:\n%+v\n%+v", jobs[i], *sres[i], *pres[i])
		}
	}
}

// TestBaseSeedMatters: a different campaign seed must actually change the
// stochastic results somewhere in the matrix.
func TestBaseSeedMatters(t *testing.T) {
	j := job(hpcc.RandomAccess, 8, migrate.AMPoM)
	a, err := New(Options{BaseSeed: 1}).Run(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{BaseSeed: 2}).Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(*a, *b) {
		t.Fatal("changing the base seed left a RandomAccess run identical")
	}
}

func TestDedupe(t *testing.T) {
	a := job(hpcc.STREAM, 8, migrate.AMPoM)
	b := job(hpcc.STREAM, 8, migrate.OpenMosix)
	got := Dedupe([]Job{a, b, a, b, a})
	if len(got) != 2 {
		t.Fatalf("dedupe kept %d jobs, want 2", len(got))
	}
	if got[0].Scheme != migrate.AMPoM || got[1].Scheme != migrate.OpenMosix {
		t.Fatal("dedupe did not preserve first-occurrence order")
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Options{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
	j := job(hpcc.STREAM, 8, migrate.AMPoM)
	if got, want := New(Options{}).SeedFor(j), New(Options{BaseSeed: 42}).SeedFor(j); got != want {
		t.Fatalf("default seed = %d, want the base seed 42 derivation %d", got, want)
	}
}
