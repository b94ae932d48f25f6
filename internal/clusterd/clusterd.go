// Package clusterd is the long-lived campaign service: an HTTP daemon
// that accepts cluster-scenario specs, executes them through the campaign
// engine's bounded worker pool, and persists every report in a
// content-addressed result store shared with the batch CLIs.
//
// The service inherits the engine's two load-bearing properties. First,
// determinism: a job's report is a pure function of (spec, base seed), so
// the daemon's response bytes are identical to what `ampom-cluster -o`
// writes for the same spec — at any worker or shard count. Second,
// content addressing: the job handle is the SHA-256 of the spec's
// canonical fingerprint, so identical submissions — concurrent or years
// apart — share one cell. A resubmission is served from the in-memory
// single-flight cache or the on-disk store without re-simulating, and the
// store's hit counter (GET /v1/stats) makes the dedup observable.
//
// Admission control is per tenant (the X-API-Key header): each tenant may
// have a bounded number of jobs queued or running, and an over-limit
// submission is rejected with 429 before any work is queued. Draining
// (Shutdown) stops admission with 503 while running jobs finish.
package clusterd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ampom/internal/campaign"
	"ampom/internal/resultstore"
	"ampom/internal/scenario"
)

// DefaultQuota is the per-tenant cap on jobs queued or running at once
// when Config.QuotaJobs is zero.
const DefaultQuota = 16

// maxSpecBytes bounds a submitted spec document; canonical specs are a
// few kilobytes, so the limit only exists to shed garbage.
const maxSpecBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Store is the persistent result store; required. The daemon shares it
	// with batch CLIs pointed at the same directory.
	Store *resultstore.Store
	// Workers bounds the number of concurrently executing jobs: 0 means
	// GOMAXPROCS.
	Workers int
	// BaseSeed is the campaign seed job seeds derive from; 0 means 42 —
	// the batch CLIs' default, which is what makes daemon and CLI bytes
	// comparable out of the box.
	BaseSeed uint64
	// QuotaJobs caps each tenant's queued-plus-running jobs: 0 means
	// DefaultQuota, negative disables the quota (the repository's
	// negative-disables convention).
	QuotaJobs int
	// DefaultShards is the event-engine shard count for submissions that
	// don't pass ?shards=N; 0 means 1 (sequential). Sharding is an
	// execution strategy: every value renders byte-identical reports.
	DefaultShards int
}

// Server is the campaign service. Create with New, mount via Handler, and
// stop with Shutdown.
type Server struct {
	cfg   Config
	eng   *campaign.Engine
	mux   *http.ServeMux
	sem   chan struct{}
	quota int // 0 = unlimited

	mu       sync.Mutex
	jobs     map[string]*job // by result-store cell key
	active   map[string]int  // queued+running jobs per tenant
	draining bool
	wg       sync.WaitGroup // one count per admitted job
}

// New returns a Server for the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("clusterd: config needs a result store")
	}
	if cfg.DefaultShards < 0 {
		return nil, fmt.Errorf("clusterd: negative default shard count %d", cfg.DefaultShards)
	}
	if cfg.DefaultShards == 0 {
		cfg.DefaultShards = 1
	}
	s := &Server{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		active: make(map[string]int),
	}
	switch {
	case cfg.QuotaJobs == 0:
		s.quota = DefaultQuota
	case cfg.QuotaJobs > 0:
		s.quota = cfg.QuotaJobs
	}
	s.eng = campaign.New(campaign.Options{
		Workers:            cfg.Workers,
		BaseSeed:           cfg.BaseSeed,
		Store:              cfg.Store,
		OnScenarioProgress: s.onProgress,
	})
	s.sem = make(chan struct{}, s.eng.Workers())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{key}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{key}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: admission stops immediately (submissions
// get 503), jobs already queued or running finish, and the method returns
// once the last one has — or with ctx's error if the deadline lands
// first. Reports are durable the moment each job completes (the engine
// persists through the store's atomic writes), so there is no separate
// flush step.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("clusterd: drain: %w", ctx.Err())
	}
}

// tenantOf resolves a request's tenant from the X-API-Key header; absent
// means the shared anonymous tenant.
func tenantOf(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

// onProgress routes an engine progress sample to its job's event stream.
func (s *Server) onProgress(p campaign.ScenarioProgress) {
	s.mu.Lock()
	j := s.jobs[resultstore.Key(p.Fingerprint)]
	s.mu.Unlock()
	if j != nil {
		j.publish(Event{Type: "progress", Policy: p.Policy, Done: p.Done, Total: p.Total})
	}
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// httpError renders the uniform JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits one job: decode the spec, dedupe against the
// registry and the store, gate the tenant's quota, then queue. The
// response is the job's status — 200 when the result already exists or
// the job is already known, 202 when newly queued.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := scenario.DecodeSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	shards := s.cfg.DefaultShards
	if q := r.URL.Query().Get("shards"); q != "" {
		shards, err = strconv.Atoi(q)
		if err != nil || shards < 1 {
			httpError(w, http.StatusBadRequest, "shards=%s: want a positive shard count", q)
			return
		}
	}
	sj := campaign.ScenarioJob{Spec: spec, Shards: shards}
	fp := sj.Fingerprint()
	key := resultstore.Key(fp)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining: no new jobs admitted")
		return
	}
	if j, ok := s.jobs[key]; ok && j.snapshot().Status != StatusFailed {
		// Same fingerprint already queued, running or done: the submission
		// dedupes onto the existing job and costs no quota. A failed entry
		// falls through instead — errors are never cached, so resubmitting
		// a failed spec re-executes it.
		s.quotaHeaders(w, tenant)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	if _, ok, _ := s.cfg.Store.Get(fp); ok {
		// The store already holds this fingerprint's report — perhaps from
		// a batch CLI run, perhaps from a previous daemon lifetime. Serve
		// it as a completed job without simulating.
		j := newJob(key, spec, shards, tenant, StatusQueued)
		j.cached = true
		s.jobs[key] = j
		s.quotaHeaders(w, tenant)
		s.mu.Unlock()
		j.setStatus(StatusDone, "")
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	if s.quota > 0 && s.active[tenant] >= s.quota {
		used := s.active[tenant]
		s.mu.Unlock()
		w.Header().Set("X-Quota-Limit", strconv.Itoa(s.quota))
		w.Header().Set("X-Quota-Used", strconv.Itoa(used))
		httpError(w, http.StatusTooManyRequests,
			"tenant quota exhausted: %d of %d job(s) active", used, s.quota)
		return
	}
	j := newJob(key, spec, shards, tenant, StatusQueued)
	s.jobs[key] = j
	s.active[tenant]++
	s.wg.Add(1)
	s.quotaHeaders(w, tenant)
	s.mu.Unlock()

	go s.runJob(j)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// quotaHeaders attaches the tenant's admission headers; the caller holds
// s.mu.
func (s *Server) quotaHeaders(w http.ResponseWriter, tenant string) {
	if s.quota > 0 {
		w.Header().Set("X-Quota-Limit", strconv.Itoa(s.quota))
		w.Header().Set("X-Quota-Used", strconv.Itoa(s.active[tenant]))
	}
}

// runJob executes one admitted job through the bounded worker pool.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	j.setStatus(StatusRunning, "")
	_, err := s.eng.RunScenario(campaign.ScenarioJob{Spec: j.spec, Shards: j.shards})

	s.mu.Lock()
	s.active[j.tenant]--
	if s.active[j.tenant] <= 0 {
		delete(s.active, j.tenant)
	}
	s.mu.Unlock()

	if err != nil {
		j.setStatus(StatusFailed, err.Error())
		return
	}
	j.setStatus(StatusDone, "")
}

// lookup resolves a path key to its registry entry, falling back to the
// persistent store for results that outlived the process that computed
// them (a previous daemon lifetime, or a batch CLI sharing the store).
// The fallback synthesizes a done-and-cached entry without registering
// it.
func (s *Server) lookup(key string) (*job, JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[key]
	s.mu.Unlock()
	if ok {
		return j, j.snapshot(), true
	}
	if _, found, _ := s.cfg.Store.GetKey(key); found {
		return nil, JobStatus{Key: key, Status: StatusDone, Cached: true}, true
	}
	return nil, JobStatus{}, false
}

// keyParam validates the {key} path parameter before it reaches the
// registry or the filesystem.
func keyParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !resultstore.ValidKey(key) {
		httpError(w, http.StatusBadRequest, "malformed job key %q", key)
		return "", false
	}
	return key, true
}

// handleStatus reports one job's state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	key, ok := keyParam(w, r)
	if !ok {
		return
	}
	_, st, found := s.lookup(key)
	if !found {
		httpError(w, http.StatusNotFound, "unknown job %s", key)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves a completed job's report. JSON responses are the
// stored bytes verbatim — the exact bytes `ampom-cluster -o report.json`
// writes for the same spec — so byte-identity between service and batch
// output is structural, not a re-encoding coincidence. ?format=csv
// re-encodes through the same CSV encoder the CLI uses.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, ok := keyParam(w, r)
	if !ok {
		return
	}
	_, st, found := s.lookup(key)
	if !found {
		httpError(w, http.StatusNotFound, "unknown job %s", key)
		return
	}
	switch st.Status {
	case StatusDone:
	case StatusFailed:
		httpError(w, http.StatusConflict, "job %s failed: %s", key, st.Error)
		return
	default:
		httpError(w, http.StatusConflict, "job %s is %s; result not ready", key, st.Status)
		return
	}
	data, found, err := s.cfg.Store.GetKey(key)
	if err != nil || !found {
		// A corrupt or missing cell behind a done job: the report is gone;
		// resubmitting recomputes and heals the cell.
		httpError(w, http.StatusNotFound, "result for %s not available; resubmit to recompute", key)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case "csv":
		reps, err := scenario.DecodeReports(data)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "decoding stored report: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		io.WriteString(w, scenario.ReportsCSV(reps))
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json or csv)", format)
	}
}

// handleEvents streams a job's progress as NDJSON: the replay buffer
// first, then live events until the job terminates or the client leaves.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	key, ok := keyParam(w, r)
	if !ok {
		return
	}
	j, st, found := s.lookup(key)
	if !found {
		httpError(w, http.StatusNotFound, "unknown job %s", key)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev Event) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if j == nil {
		// Store-only result (previous daemon lifetime): the whole history
		// collapses to its terminal state.
		emit(Event{Type: "status", Status: st.Status})
		return
	}
	replay, ch := j.subscribe()
	defer j.unsubscribe(ch)
	for _, ev := range replay {
		emit(ev)
	}
	for {
		select {
		case ev := <-ch:
			emit(ev)
		case <-r.Context().Done():
			return
		case <-j.done:
			// Drain events raced ahead of the close, then finish.
			for {
				select {
				case ev := <-ch:
					emit(ev)
				default:
					return
				}
			}
		}
	}
}

// handleDiff compares two completed jobs' reports with the same
// field-by-field gate as `ampom-cluster -diff`.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading diff request: %v", err)
		return
	}
	var req DiffRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding diff request: %v", err)
		return
	}
	opts := scenario.DiffOptions{RelEps: req.Eps, Summary: req.Summary}
	if err := opts.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	load := func(key string) ([]byte, bool) {
		if !resultstore.ValidKey(key) {
			httpError(w, http.StatusBadRequest, "malformed job key %q", key)
			return nil, false
		}
		_, st, found := s.lookup(key)
		if !found {
			httpError(w, http.StatusNotFound, "unknown job %s", key)
			return nil, false
		}
		if st.Status != StatusDone {
			httpError(w, http.StatusConflict, "job %s is %s; nothing to diff", key, st.Status)
			return nil, false
		}
		data, found, err := s.cfg.Store.GetKey(key)
		if err != nil || !found {
			httpError(w, http.StatusNotFound, "result for %s not available", key)
			return nil, false
		}
		return data, true
	}
	a, ok := load(req.A)
	if !ok {
		return
	}
	b, ok := load(req.B)
	if !ok {
		return
	}
	diffs, err := scenario.DiffReportsData(a, b, opts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, DiffResponse{Equal: len(diffs) == 0, Divergences: diffs})
}

// handleStats reports the store counters and registry census.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make(map[string]int)
	for _, j := range s.jobs {
		jobs[j.snapshot().Status]++
	}
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Stats{
		Store:    s.cfg.Store.Stats(),
		Jobs:     jobs,
		Executed: s.eng.Executed(),
		Requests: s.eng.Requests(),
		Draining: draining,
	})
}
