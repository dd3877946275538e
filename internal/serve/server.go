package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Options configures a Server.
type Options struct {
	// Cache is the shared memoized result cache (nil disables caching —
	// every run recomputes).
	Cache *runner.ResultCache
	// MaxJobs bounds the number of concurrently executing async jobs
	// (each job still fans its runs out over its own worker pool);
	// non-positive selects 2. Jobs beyond the bound queue in submission
	// order.
	MaxJobs int
	// MaxFinished bounds how many finished (done/failed/canceled) job
	// records — status, spec, event buffer — the server retains; each new
	// submission evicts the oldest finished jobs beyond the bound, so a
	// long-lived server cannot grow without limit. Non-positive selects
	// 1000. Queued and running jobs are never evicted.
	MaxFinished int
	// Logf receives one line per lifecycle transition (nil = log.Printf).
	Logf func(format string, args ...interface{})
	// Executor computes the accepted jobs (nil = in-process over Cache).
	Executor Executor
}

// Server is the DSE job service. Create with New, mount via Handler.
type Server struct {
	cache       *runner.ResultCache
	exec        Executor
	sem         chan struct{}
	maxFinished int
	logf        func(string, ...interface{})
	draining    atomic.Bool
	syncRuns    atomic.Int64 // in-flight synchronous /v1/run requests

	mu     sync.Mutex // guards jobs/order/nextID
	jobs   map[string]*job
	order  []string
	nextID int
}

// New creates a server.
func New(opts Options) *Server {
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 2
	}
	maxFinished := opts.MaxFinished
	if maxFinished <= 0 {
		maxFinished = 1000
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		cache:       opts.Cache,
		exec:        opts.Executor,
		sem:         make(chan struct{}, maxJobs),
		maxFinished: maxFinished,
		logf:        logf,
		jobs:        map[string]*job{},
	}
	if s.exec == nil {
		s.exec = s.local
	}
	return s
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap.
// Queued and running jobs are untouched. Caller holds s.mu.
func (s *Server) pruneLocked() {
	finished := 0
	for _, id := range s.order {
		if terminal(s.jobs[id].snapshot().State) {
			finished++
		}
	}
	if finished <= s.maxFinished {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if finished > s.maxFinished && terminal(s.jobs[id].snapshot().State) {
			delete(s.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// Cache returns the server's result cache (nil when disabled).
func (s *Server) Cache() *runner.ResultCache { return s.cache }

// Drain puts the server into graceful-drain mode: new submissions
// (POST /v1/jobs and POST /v1/run) are refused with 503 and the stable
// error code "draining", while status, stream, cancel, and metrics
// requests — and all work already in flight — proceed to completion. A
// fleet worker drains on SIGTERM: deregister from the coordinator,
// Drain, WaitIdle, then exit. Drain is idempotent and cannot be undone.
func (s *Server) Drain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining — refusing new submissions, finishing in-flight jobs")
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveJobs counts the work in flight: async jobs not yet in a terminal
// state (queued + running) plus synchronous /v1/run requests.
func (s *Server) ActiveJobs() int {
	n := int(s.syncRuns.Load())
	for _, st := range s.Jobs() {
		if !terminal(st.State) {
			n++
		}
	}
	return n
}

// Jobs snapshots the job table, sorted by ID.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// WaitIdle blocks until every queued and running job and every
// synchronous run has finished, or ctx expires (returning its error).
// The drain sequence calls it after Drain so no new work can arrive
// behind it.
func (s *Server) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.ActiveJobs() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Handler mounts the API under /v1.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// APIError is the uniform error envelope of the /v1 API: every non-2xx
// JSON response has the shape {"error":{"code":...,"message":...}}. The
// code is a stable machine-readable slug; the message is for humans.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// errorCode maps an HTTP status to the envelope's stable slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return strings.ToLower(strings.ReplaceAll(http.StatusText(status), " ", "_"))
	}
}

// WriteError writes err in the /v1 error envelope, its code derived
// from the HTTP status.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorEnvelope{Error: APIError{Code: errorCode(code), Message: err.Error()}})
}

// CodeDraining is the stable error-envelope code of a 503 refused by a
// draining server. Coordinators and clients key their re-route/retry
// logic on the 503 status; the code makes the refusal diagnosable.
const CodeDraining = "draining"

// writeDraining refuses a submission on a draining server: 503, a
// Retry-After hint, and the "draining" envelope code.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: APIError{
		Code:    CodeDraining,
		Message: "serve: draining — not accepting new jobs; retry against the coordinator",
	}})
}

// handleScenarios writes the scenario catalog.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name       string  `json:"name"`
		Family     string  `json:"family"`
		Size       string  `json:"size"`
		Stresses   string  `json:"stresses"`
		DeadlineMS float64 `json:"deadlineMS,omitempty"`
		Runs       int     `json:"runs"`
	}
	var out []entry
	for _, sc := range scenario.All() {
		out = append(out, entry{
			Name: sc.Name, Family: sc.Family, Size: sc.Size.String(),
			Stresses: sc.Stresses, DeadlineMS: sc.DeadlineMS, Runs: sc.Budget.Runs,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// CacheInfo is the /cache wire shape: whether caching is on, plus the
// full cache statistics (aggregate counters, policy, capacity, and the
// per-shard breakdown) when it is.
type CacheInfo struct {
	Enabled bool `json:"enabled"`
	memo.Stats
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		WriteJSON(w, http.StatusOK, CacheInfo{Enabled: false})
		return
	}
	WriteJSON(w, http.StatusOK, CacheInfo{Enabled: true, Stats: s.cache.Stats()})
}

// maxSpecBytes bounds a job-spec request body. Inline models are a few
// hundred KB at the corpus's largest; 8 MiB leaves headroom without
// letting an unauthenticated client stream gigabytes into the drain.
const maxSpecBytes = 8 << 20

// decodeSpec reads a JobSpec, rejecting unknown fields so typos surface
// as 400s instead of silently-default jobs. The (size-bounded) body is
// drained to EOF: json.Decoder stops at the end of the first value, and
// net/http only arms its client-disconnect detection (the background
// read that cancels the request context) once the handler has consumed
// the body — without the drain, a /run client hanging up would never
// cancel the computation.
func decodeSpec(w http.ResponseWriter, r *http.Request) (*JobSpec, error) {
	body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("serve: decoding job spec: %w", err)
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return nil, fmt.Errorf("serve: reading job spec: %w", err)
	}
	return &spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	spec, err := decodeSpec(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	task, err := s.exec(spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{cancel: cancel}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	j.status = JobStatus{ID: id, State: StateQueued, Spec: *spec, Submitted: time.Now().UTC()}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pruneLocked()
	s.mu.Unlock()
	s.logf("serve: %s queued (%s)", id, specName(spec))
	go s.execute(ctx, j, task)
	WriteJSON(w, http.StatusAccepted, j.snapshot())
}

// specName names a spec for log lines.
func specName(spec *JobSpec) string {
	if spec.Scenario != "" {
		return "scenario " + spec.Scenario
	}
	if spec.App != nil {
		return "inline app " + spec.App.Name
	}
	return "inline models"
}

// execute runs an async job's task and publishes its final state.
func (s *Server) execute(ctx context.Context, j *job, task Task) {
	p := &Progress{job: j, sem: s.sem, emit: j.addEvent}
	summary, err := task(ctx, p)
	p.release()
	now := time.Now().UTC()
	st := j.snapshot()
	if err == nil || ctx.Err() != nil {
		j.mu.Lock()
		j.status.Summary = summary // partial aggregate of the completed runs when canceled
		j.mu.Unlock()
	}
	switch {
	case err == nil:
		j.setState(StateDone, now)
		s.logf("serve: %s done (%d/%d runs, best cost %.4f, %d cache hits, %.1f ms)",
			st.ID, summary.Completed, summary.Requested, summary.BestCost, summary.CacheHits, summary.WallMS)
	case ctx.Err() != nil:
		j.setState(StateCanceled, now)
		s.logf("serve: %s canceled (%d runs completed)", st.ID, st.Events)
	default:
		j.mu.Lock()
		j.status.Error = err.Error()
		j.mu.Unlock()
		j.setState(StateFailed, now)
		s.logf("serve: %s failed: %v", st.ID, err)
	}
}

func (s *Server) jobFor(r *http.Request) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	s.logf("serve: %s cancellation requested", j.snapshot().ID)
	WriteJSON(w, http.StatusAccepted, j.snapshot())
}

// handleStream replays the job's buffered run events as NDJSON, then
// follows live ones, and closes with a {"summary": ...} (or {"error":
// ...}) line once the job reaches a terminal state. A disconnecting
// watcher stops streaming but does not cancel the job — use DELETE for
// that (or the synchronous /run endpoint, whose lifetime is the request).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers to the client immediately: a streaming consumer
		// must see the response open before the first event exists.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	wake, unsubscribe := j.subscribe()
	defer unsubscribe()
	next := 0
	for {
		events, state := j.eventsFrom(next)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		next += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if terminal(state) {
			// Drain any events added between the copy and the transition.
			if events, _ := j.eventsFrom(next); len(events) == 0 {
				break
			}
			continue
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
	st := j.snapshot()
	final := map[string]interface{}{"state": st.State}
	if st.Summary != nil {
		final["summary"] = st.Summary
	}
	if st.Error != "" {
		final["error"] = st.Error
	}
	enc.Encode(final)
	if flusher != nil {
		flusher.Flush()
	}
}

// handleRun computes a job inside the request: per-run NDJSON events
// stream as they complete, a final summary line closes the body. The run
// inherits the request context, so a client disconnect cancels the
// in-flight runs within one search step — and since truncated runs error
// out, nothing partial enters the result cache. The run holds no job
// record; an atomic counter keeps it visible to ActiveJobs, and so to
// the drain sequence.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// Count before the drain check: a run that passes the check is then
	// always seen by a WaitIdle that follows Drain.
	s.syncRuns.Add(1)
	defer s.syncRuns.Add(-1)
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	spec, err := decodeSpec(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	task, err := s.exec(spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Headers must reach the client before the computation starts:
		// the caller watches the stream (and may hang up to cancel).
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	summary, runErr := task(r.Context(), &Progress{emit: func(e RunEvent) {
		enc.Encode(e)
		if flusher != nil {
			flusher.Flush()
		}
	}})
	final := map[string]interface{}{}
	if summary != nil {
		final["summary"] = summary
	}
	switch {
	case runErr == nil:
		final["state"] = StateDone
	case r.Context().Err() != nil:
		final["state"] = StateCanceled
	default:
		final["state"] = StateFailed
		final["error"] = runErr.Error()
	}
	enc.Encode(final)
	if flusher != nil {
		flusher.Flush()
	}
}
