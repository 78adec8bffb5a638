// Package ctlplane is the hardened multi-tenant control plane of the
// reproduction: a long-lived HTTP/JSON service that runs many isolated
// simulations on a supervised worker pool and serves cached analytic
// model predictions on a hot read path.
//
// The robustness envelope, end to end:
//
//	admission   per-tenant token buckets + concurrent-job quotas, a
//	            bounded queue that sheds with Retry-After when full —
//	            never unbounded buffering
//	execution   one attempt per job, with a per-job deadline and panic
//	            isolation; a worker that dies mid-job is respawned and
//	            its job re-enqueued
//	dedup       outcomes are stored by canonicalized spec hash: identical
//	            submissions coalesce onto one in-flight run, and a result
//	            or a failure is served to every later one (determinism
//	            means a rerun would answer the same); only a drain or a
//	            deadline overrun runs a spec again
//	drain       SIGTERM stops admission, in-flight runs finish or
//	            checkpoint at their next pair-list boundary, the journal
//	            flushes, the process exits 0
//
// Everything mounts on a telemetry plane of the server's own: /metrics,
// /healthz (reflecting its queue depth and draining as the "ctlplane"
// component), /streamz and /debug/pprof ride along on the same handler.
package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/telemetry"
)

// Config tunes the service; the zero value gets sensible defaults.
type Config struct {
	Workers  int // worker goroutines (default 4)
	QueueCap int // max queued (not yet started) jobs (default 64)

	TenantRate  float64 // run submissions per second per tenant (default 10)
	TenantBurst float64 // submission burst (default 20)
	TenantJobs  int     // concurrent accepted jobs per tenant (default 8; <=0 unlimited)

	PredictRate  float64 // predictions per second per tenant (default 2000)
	PredictBurst float64 // prediction burst (default 4000)

	JobDeadline time.Duration // per-job wall deadline (default 2m; <=0 disables)

	Limits Limits // per-submission bounds

	// Archive, when non-nil, is the persistent run warehouse: the dedup
	// result store is primed from its result records at startup (restarts
	// serve cached terminal results without re-execution), every completed
	// job appends a new result record, every run's journal events and
	// summary are ingested, and per-tenant completion counters carry on
	// across reboots.  The server does not close it — the owner (opald)
	// does, after Drain.
	Archive *archive.Archive

	now func() time.Time // test clock for the quotas
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.TenantRate == 0 {
		c.TenantRate = 10
	}
	if c.TenantBurst == 0 {
		c.TenantBurst = 20
	}
	if c.TenantJobs == 0 {
		c.TenantJobs = 8
	}
	if c.PredictRate == 0 {
		c.PredictRate = 2000
	}
	if c.PredictBurst == 0 {
		c.PredictBurst = 4000
	}
	if c.JobDeadline == 0 {
		c.JobDeadline = 2 * time.Minute
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// Server is one control-plane instance.
type Server struct {
	cfg      Config
	q        *queue
	store    *store
	runQ     *quotas
	predictQ *quotas
	pred     *predictor
	pool     *pool
}

// New assembles a server; Start launches its workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	systems := newSystemCache()
	s := &Server{
		cfg:      cfg,
		q:        newQueue(cfg.QueueCap),
		store:    newStore(),
		runQ:     newQuotas(cfg.TenantRate, cfg.TenantBurst, cfg.TenantJobs, cfg.now),
		predictQ: newQuotas(cfg.PredictRate, cfg.PredictBurst, 0, cfg.now),
		pred:     newPredictor(systems),
	}
	s.store.onRelease = s.runQ.release
	s.pool = newPool(cfg, s.q, s.store, systems)
	if cfg.Archive != nil {
		if n := s.store.restoreFromArchive(cfg.Archive); n > 0 {
			telemetry.Emit("ctl_store_restored", telemetry.F{"results": n})
		}
	}
	return s
}

// Start launches the worker pool.
func (s *Server) Start() {
	s.pool.start()
	telemetry.Emit("service_start", telemetry.F{
		"workers": s.cfg.Workers, "queue_cap": s.cfg.QueueCap,
	})
}

// healthDetail reports queue depth; a draining service reports
// unhealthy so load balancers stop routing to it.
func (s *Server) healthDetail() (string, bool) {
	detail := fmt.Sprintf("queue %d/%d", s.q.depth(), s.cfg.QueueCap)
	if s.pool.draining.Load() {
		return detail + ", draining", false
	}
	return detail, true
}

// Drain performs the graceful shutdown: stop admitting, then let every
// accepted job finish or checkpoint.  It blocks until the pool is idle;
// /healthz answers 503 "draining" from its start until the HTTP stops.
func (s *Server) Drain() {
	telemetry.Emit("drain_start", telemetry.F{"queued": s.q.depth()})
	s.pool.drain()
	telemetry.Emit("drain_done", telemetry.F{})
}

// streamExtra is the control plane's contribution to /streamz snapshots:
// queue pressure, running jobs and draining.
func (s *Server) streamExtra() any {
	return map[string]any{
		"queue_depth":  s.q.depth(),
		"queue_cap":    s.cfg.QueueCap,
		"jobs_running": mJobsRunning.Value(),
		"draining":     s.pool.draining.Load(),
	}
}

// Submit admits one run submission for tenant; it is the transport-free
// core of POST /v1/runs.
func (s *Server) Submit(tenant string, spec JobSpec) (jobID string, coalesced bool, err error) {
	if s.pool.draining.Load() {
		return "", false, &shedError{Reason: "draining", RetryAfter: 5 * time.Second}
	}
	c, err := spec.Canonicalize(s.cfg.Limits)
	if err != nil {
		return "", false, err
	}
	hash := c.Hash()
	if err := s.runQ.admit(tenant); err != nil {
		mShed.With(err.(*shedError).Reason).Add(1)
		mTenantShed.With(tenant).Add(1)
		return "", false, err
	}
	jobID, _, coalesced, err = s.store.submit(c, hash, tenant, func(j *job) bool {
		j.EnqueuedAt = time.Now()
		if ok := s.q.tryPush(j); ok {
			mQueueDepth.Set(int64(s.q.depth()))
			return true
		}
		return false
	})
	if err != nil {
		s.runQ.release(tenant)
		mShed.With("queue_full").Add(1)
		mTenantShed.With(tenant).Add(1)
		return "", false, err
	}
	if coalesced {
		// The submission attached to an existing execution or cached
		// outcome; if it is already terminal no slot is held for it.
		if e, ok := s.store.get(jobID); ok {
			s.store.mu.Lock()
			if _, held := e.reservations[jobID]; !held {
				s.store.mu.Unlock()
				s.runQ.release(tenant)
			} else {
				s.store.mu.Unlock()
			}
		}
		mCoalesced.Add(1)
	} else {
		mAccepted.Add(1)
		mTenantAdmitted.With(tenant).Add(1)
	}
	telemetry.Emit("ctl_job_accepted", telemetry.F{
		"job": jobID, "tenant": tenant, "coalesced": coalesced,
	})
	return jobID, coalesced, nil
}

// Handler mounts the control-plane API over the telemetry plane:
//
//	POST /v1/runs        submit a run (JSON JobSpec); 202 with job_id
//	GET  /v1/runs/{id}   job status and result
//	GET  /v1/predict     analytic model prediction (hot read path)
//
// plus /metrics, /healthz, /streamz and /debug/pprof from the server's
// telemetry plane, whose health and stream carry its queue.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/runs", s.handleRuns)
	mux.HandleFunc("/v1/runs/", s.handleRunGet)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.Handle("/", telemetry.Plane{
		Components: map[string]func() (string, bool){"ctlplane": s.healthDetail},
		Extras:     map[string]func() any{"ctlplane": s.streamExtra},
	}.Handler())
	return mux
}

// tenantOf extracts the tenant identity (X-Tenant header, "default"
// otherwise).
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "default"
}

// writeShed maps an admission rejection onto 429/503 + Retry-After.
func writeShed(w http.ResponseWriter, err *shedError) {
	secs := int(err.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	code := http.StatusTooManyRequests
	switch err.Reason {
	case "queue_full", "draining":
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q,\"retry_after\":%d}\n", err.Reason, secs)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST a JobSpec to submit a run"))
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(&limitedReader{r: r.Body, n: 1 << 16}).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JobSpec: %w", err))
		return
	}
	tenant := tenantOf(r)
	if spec.Tenant != "" {
		tenant = spec.Tenant
	}
	jobID, coalesced, err := s.Submit(tenant, spec)
	if err != nil {
		var shed *shedError
		if errors.As(err, &shed) {
			writeShed(w, shed)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, _ := s.store.snapshotOf(jobID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job_id": jobID, "hash": snap.Hash, "coalesced": coalesced, "state": snap.State,
	})
}

// runView is the GET /v1/runs/{id} document.
type runView struct {
	JobID          string     `json:"job_id"`
	Hash           string     `json:"hash"`
	State          string     `json:"state"`
	Spec           JobSpec    `json:"spec"`
	Attempts       int        `json:"attempts"`
	Completions    int        `json:"completions"`
	Result         *JobResult `json:"result,omitempty"`
	Error          string     `json:"error,omitempty"`
	CheckpointStep int        `json:"checkpoint_step,omitempty"`
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET a job ID"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/runs/")
	snap, ok := s.store.snapshotOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, runView{
		JobID: id, Hash: snap.Hash, State: snap.State, Spec: snap.Spec,
		Attempts: snap.Attempts, Completions: snap.Completions,
		Result: snap.Result, Error: snap.Err, CheckpointStep: snap.CheckpointStep,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if err := s.predictQ.allow(tenantOf(r)); err != nil {
		writeShed(w, err.(*shedError))
		return
	}
	q := r.URL.Query()
	spec := JobSpec{Platform: q.Get("platform"), Size: q.Get("size")}
	err := errors.Join(
		param(q, "scale", &spec.Scale, parseFloat), param(q, "servers", &spec.Servers, strconv.Atoi),
		param(q, "steps", &spec.Steps, strconv.Atoi), param(q, "cutoff", &spec.Cutoff, parseFloat),
		param(q, "update", &spec.UpdateEvery, strconv.Atoi))
	var resp PredictResponse
	if err == nil {
		if spec, err = spec.Canonicalize(s.cfg.Limits); err == nil {
			resp, err = s.pred.predict(spec)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
	mPredicts.Add(1)
	mPredictSeconds.Observe(time.Since(t0).Seconds())
}

// param parses an optional query parameter into dst; an absent one
// leaves dst zero, which Canonicalize reads as unset.
func param[T any](q url.Values, key string, dst *T, parse func(string) (T, error)) error {
	if s := q.Get(key); s != "" {
		v, err := parse(s)
		if err != nil {
			return fmt.Errorf("bad %s %q", key, s)
		}
		*dst = v
	}
	return nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// limitedReader bounds request bodies the way readFrame bounds frames:
// a misbehaving client cannot make the server buffer without limit.
type limitedReader struct {
	r io.Reader
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, errors.New("request body too large")
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}
