package clusterd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ampom/internal/campaign"
	"ampom/internal/fabric"
	"ampom/internal/resultstore"
	"ampom/internal/scenario"
	"ampom/internal/simtime"
)

// newTestServer boots a service on an ephemeral port over a fresh store.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, NewClient(hs.URL), hs
}

// smallSpec is a shrunk scenario that simulates in milliseconds.
func smallSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	s := scenario.Spec{
		Name:            name,
		Nodes:           4,
		Procs:           8,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
	}.Canonical()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterdSmoke is the CI acceptance gate (make clusterd-smoke): boot
// the daemon on an ephemeral port, submit the 64-node hpc-farm preset
// twice, and assert that the second submission is served without
// re-simulation, that a fresh daemon sharing the store serves it as a
// store hit, and that the daemon's result bytes are byte-identical to
// what the batch path (`ampom-cluster -o report.json`, i.e. the campaign
// engine at the default seed) produces for the same spec.
func TestClusterdSmoke(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, c, _ := newTestServer(t, Config{Store: store})
	spec, err := scenario.Preset("hpc-farm")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	st1, err := c.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Key == "" || !resultstore.ValidKey(st1.Key) {
		t.Fatalf("submit returned malformed key %q", st1.Key)
	}
	done, err := c.Wait(ctx, st1.Key)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job finished %s (%s), want done", done.Status, done.Error)
	}

	// Second submission of the identical spec: same key, already done, and
	// no second simulation ran.
	st2, err := c.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Key != st1.Key {
		t.Fatalf("identical specs got distinct keys %s / %s", st1.Key, st2.Key)
	}
	if st2.Status != StatusDone {
		t.Fatalf("resubmission status %s, want done", st2.Status)
	}
	if s.eng.Executed() != 1 {
		t.Fatalf("two submissions executed %d simulations, want 1", s.eng.Executed())
	}

	// The daemon's JSON result is byte-identical to the batch path: the
	// campaign engine at the shared default seed, encoded by Report.JSON —
	// exactly the bytes `ampom-cluster -o report.json` writes.
	gotJSON, err := c.Result(ctx, st1.Key, "json")
	if err != nil {
		t.Fatal(err)
	}
	batch := campaign.New(campaign.Options{})
	rep, err := batch.RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("daemon result bytes differ from the batch CLI encoding")
	}
	gotCSV, err := c.Result(ctx, st1.Key, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != scenario.ReportsCSV([]*scenario.Report{rep}) {
		t.Fatal("daemon CSV differs from the batch CSV encoding")
	}

	// A fresh daemon lifetime over the same store: the submission is a
	// store hit (cached, no simulation), observable through /v1/stats.
	s2, c2, _ := newTestServer(t, Config{Store: store})
	hitsBefore := store.Stats().Hits
	st3, err := c2.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Key != st1.Key || st3.Status != StatusDone || !st3.Cached {
		t.Fatalf("restart submission = %+v, want done+cached under the same key", st3)
	}
	if s2.eng.Executed() != 0 {
		t.Fatalf("restart daemon executed %d simulations, want 0", s2.eng.Executed())
	}
	stats, err := c2.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store.Hits <= hitsBefore {
		t.Fatalf("store hits %d not above %d — the dedup is not observable", stats.Store.Hits, hitsBefore)
	}
	if got, err := c2.Result(ctx, st1.Key, ""); err != nil || string(got) != string(wantJSON) {
		t.Fatalf("restart daemon result differs (err %v)", err)
	}
}

// TestShardsByteIdentity locks the acceptance property across execution
// strategies: a daemon running a two-tier spec sharded serves the same
// bytes as the sequential batch path.
func TestShardsByteIdentity(t *testing.T) {
	spec := scenario.Spec{
		Name:            "sharded",
		Nodes:           8,
		Procs:           16,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
		Fabric:          scenario.FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4},
	}.Canonical()
	_, c, _ := newTestServer(t, Config{DefaultShards: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.Key); err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(ctx, st.Key, "json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunShards(spec, campaign.DeriveSeed(42, campaign.ScenarioJob{Spec: spec}.Fingerprint()), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("sharded daemon run differs from the sequential batch run")
	}
}

// TestQuotaAdmission locks per-tenant admission control: with the worker
// slot held, a tenant can stack jobs only up to the quota, the 429 rings
// carry the quota headers, dedup costs nothing, and another tenant has
// its own budget.
func TestQuotaAdmission(t *testing.T) {
	s, c, hs := newTestServer(t, Config{Workers: 1, QuotaJobs: 2})
	// Occupy the single worker slot so admitted jobs stay queued.
	s.sem <- struct{}{}
	ctx := context.Background()

	a, err := c.Submit(ctx, smallSpec(t, "qa"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, smallSpec(t, "qb"), 0); err != nil {
		t.Fatal(err)
	}
	// Third distinct spec: over quota, rejected before any work is queued.
	_, err = c.Submit(ctx, smallSpec(t, "qc"), 0)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("over-quota submit error %v, want 429", err)
	}
	// The raw response carries the quota headers.
	data, err := scenario.EncodeSpec(smallSpec(t, "qc"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-Quota-Limit") != "2" || resp.Header.Get("X-Quota-Used") != "2" {
		t.Fatalf("quota headers limit=%q used=%q, want 2/2",
			resp.Header.Get("X-Quota-Limit"), resp.Header.Get("X-Quota-Used"))
	}
	// Resubmitting a queued spec dedupes — no quota charge, no rejection.
	if st, err := c.Submit(ctx, smallSpec(t, "qa"), 0); err != nil || st.Key != a.Key {
		t.Fatalf("dedup submit: %+v, %v", st, err)
	}
	// Another tenant has an independent budget.
	other := NewClient(hs.URL)
	other.APIKey = "tenant-b"
	if _, err := other.Submit(ctx, smallSpec(t, "qc"), 0); err != nil {
		t.Fatalf("second tenant rejected: %v", err)
	}
	// Release the worker; everything queued drains, freeing the quota.
	<-s.sem
	for _, name := range []string{"qa", "qb", "qc"} {
		key := resultstore.Key(campaign.ScenarioJob{Spec: smallSpec(t, name)}.Fingerprint())
		if st, err := c.Wait(ctx, key); err != nil || st.Status != StatusDone {
			t.Fatalf("%s: %+v, %v", name, st, err)
		}
	}
	d, err := c.Submit(ctx, smallSpec(t, "qd"), 0)
	if err != nil {
		t.Fatalf("quota not released after drain: %v", err)
	}
	// Let the job finish before the store's temporary directory is removed.
	if _, err := c.Wait(ctx, d.Key); err != nil {
		t.Fatal(err)
	}
}

// TestFailedEntryReplaced locks the error-caching satellite at the
// daemon level: a registry entry in the failed state does not dedupe a
// resubmission — the spec re-executes.
func TestFailedEntryReplaced(t *testing.T) {
	s, c, _ := newTestServer(t, Config{})
	spec := smallSpec(t, "retry")
	sj := campaign.ScenarioJob{Spec: spec}
	key := resultstore.Key(sj.Fingerprint())
	// Plant a failed entry under the spec's key, as a crashed run leaves.
	failed := newJob(key, spec, 1, "anonymous", StatusQueued)
	failed.setStatus(StatusFailed, "synthetic failure")
	s.mu.Lock()
	s.jobs[key] = failed
	s.mu.Unlock()

	ctx := context.Background()
	st, err := c.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == StatusFailed {
		t.Fatal("failed entry replayed instead of re-executing")
	}
	if st, err := c.Wait(ctx, st.Key); err != nil || st.Status != StatusDone {
		t.Fatalf("retry did not complete: %+v, %v", st, err)
	}
}

// TestEventsStream locks the NDJSON feed: replay plus live events carry
// per-policy progress and end at the terminal status, and a late
// subscriber receives the full replay.
func TestEventsStream(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, smallSpec(t, "events"), 0)
	if err != nil {
		t.Fatal(err)
	}
	collect := func() (progress int, last Event, policies map[string]bool) {
		policies = make(map[string]bool)
		streamCtx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		err := c.Events(streamCtx, st.Key, func(ev Event) {
			last = ev
			if ev.Type == "progress" {
				progress++
				policies[ev.Policy] = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return progress, last, policies
	}
	progress, last, policies := collect()
	if progress == 0 {
		t.Fatal("no progress events on the live stream")
	}
	if last.Type != "status" || last.Status != StatusDone {
		t.Fatalf("stream ended on %+v, want the done status", last)
	}
	if !policies["AMPoM"] || !policies["no-migration"] {
		t.Fatalf("progress events name policies %v, want AMPoM and no-migration among them", policies)
	}
	// A subscriber arriving after completion replays the identical history.
	progress2, last2, _ := collect()
	if progress2 != progress || last2.Status != StatusDone {
		t.Fatalf("replay stream saw %d progress events ending %+v, want %d ending done",
			progress2, last2, progress)
	}
}

// TestDiffEndpoint locks server-side report comparison: a key against
// itself gates equal, different scenarios diverge, and the tolerance
// knobs arrive intact.
func TestDiffEndpoint(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	ctx := context.Background()
	a, err := c.Submit(ctx, smallSpec(t, "diff-a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, smallSpec(t, "diff-b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{a.Key, b.Key} {
		if _, err := c.Wait(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	same, err := c.Diff(ctx, DiffRequest{A: a.Key, B: a.Key})
	if err != nil {
		t.Fatal(err)
	}
	if !same.Equal || len(same.Divergences) != 0 {
		t.Fatalf("self-diff not equal: %+v", same)
	}
	diff, err := c.Diff(ctx, DiffRequest{A: a.Key, B: b.Key})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Equal || len(diff.Divergences) == 0 {
		t.Fatalf("distinct scenarios gate equal: %+v", diff)
	}
	summary, err := c.Diff(ctx, DiffRequest{A: a.Key, B: b.Key, Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Equal || len(summary.Divergences) >= len(diff.Divergences) {
		t.Fatalf("summary mode did not collapse the output: %d vs %d lines",
			len(summary.Divergences), len(diff.Divergences))
	}
	// Epsilons the gate cannot honour are the caller's mistake: 400, never
	// a silently exact gate.
	for _, eps := range []map[string]float64{{"": -0.02}, {"mean_slowdwon": 0.02}} {
		_, err := c.Diff(ctx, DiffRequest{A: a.Key, B: b.Key, Eps: eps})
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("diff with eps %v: %v, want 400", eps, err)
		}
	}
}

// TestDrain locks graceful shutdown: draining rejects new submissions
// with 503 while queued jobs finish, and Shutdown returns once they have.
func TestDrain(t *testing.T) {
	s, c, _ := newTestServer(t, Config{Workers: 1})
	s.sem <- struct{}{} // hold the worker so the job stays queued
	ctx := context.Background()
	st, err := c.Submit(ctx, smallSpec(t, "drain"), 0)
	if err != nil {
		t.Fatal(err)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		shutdownErr <- s.Shutdown(sctx)
	}()
	// Draining flips synchronously in Shutdown before it blocks on the
	// drain; poll briefly for the flag, then assert admission is closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never set draining")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Submit(ctx, smallSpec(t, "drain-late"), 0)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining: %v, want 503", err)
	}
	// Status reads still work mid-drain.
	if _, err := c.Status(ctx, st.Key); err != nil {
		t.Fatal(err)
	}
	<-s.sem // release the worker; the queued job runs to completion
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	done, err := c.Status(ctx, st.Key)
	if err != nil || done.Status != StatusDone {
		t.Fatalf("queued job after drain: %+v, %v — drain must finish admitted work", done, err)
	}
}

// TestRequestHygiene locks the error surface: malformed keys and specs
// are 400s, unknown keys 404, and an unfinished job's result is a 409.
func TestRequestHygiene(t *testing.T) {
	s, c, hs := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	for _, path := range []string{
		"/v1/jobs/../../etc/passwd",
		"/v1/jobs/short",
		"/v1/jobs/" + strings.Repeat("Z", 64),
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want a 4xx rejection", path, resp.StatusCode)
		}
	}
	if _, err := c.Status(ctx, strings.Repeat("a", 64)); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown key status: %v, want 404", err)
	}
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"version":1,"nodez":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400", resp.StatusCode)
	}

	s.sem <- struct{}{} // keep the job queued
	st, err := c.Submit(ctx, smallSpec(t, "hygiene"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, st.Key, "json"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("result of queued job: %v, want 409", err)
	}
	<-s.sem
	if _, err := c.Wait(ctx, st.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, st.Key, "xml"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown format: %v, want 400", err)
	}
}
