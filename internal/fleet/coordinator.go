package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/serve"
)

// Options configures a Coordinator.
type Options struct {
	// HeartbeatTimeout is the silence after which a worker is declared
	// dead: it leaves the ring and its in-flight jobs re-route to the
	// surviving owners. Non-positive selects 5s.
	HeartbeatTimeout time.Duration
	// SweepInterval is the death-detection cadence (non-positive selects
	// HeartbeatTimeout/4).
	SweepInterval time.Duration
	// Replicas is the ring's virtual-node count per worker (non-positive
	// selects DefaultReplicas).
	Replicas int
	// MaxAttempts bounds dispatch attempts per job before it fails
	// (non-positive selects 5). Every lost worker costs one attempt, so
	// the bound only trips when the fleet is flapping.
	MaxAttempts int
	// Logf receives one line per fleet event (nil = log.Printf).
	Logf func(format string, args ...interface{})
	// HTTPClient talks to workers (nil = a client with a 10s timeout).
	// Job streams share its transport but not its timeout: a stream lasts
	// as long as its job.
	HTTPClient *http.Client
}

// Coordinator fronts a fleet of dsed workers. Its job API is a
// serve.Server — the same /v1 job routes a single dsed answers — whose
// executor routes each job by consistent hash of its result-cache
// fingerprint (serve.RingKey) to the owning worker and streams it from
// that worker's POST /v1/run. Workers join with POST /v1/register, stay
// live with periodic POST /v1/heartbeat, and leave gracefully with
// POST /v1/deregister (drain: out of the ring immediately, in-flight
// jobs finish in place).
type Coordinator struct {
	heartbeatTimeout time.Duration
	sweepInterval    time.Duration
	maxAttempts      int
	logf             func(string, ...interface{})
	client           *http.Client // membership-side calls, with a timeout
	stream           *http.Client // job streams: same transport, no timeout
	srv              *serve.Server

	ctx    context.Context // cancelled by Close
	cancel context.CancelFunc

	mu             sync.Mutex
	workers        map[string]*member
	ring           *Ring
	joined         chan struct{} // closed, and replaced, whenever a worker joins the ring
	requeues       uint64
	dispatchErrors uint64
}

// member is one registered worker.
type member struct {
	id       string
	url      string
	lastBeat time.Time
	draining bool
	// ctx is cancelled when the worker is dropped, cutting its job
	// streams so their jobs re-route.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewCoordinator creates a coordinator and starts its heartbeat sweep.
// Close it to stop the background work.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		heartbeatTimeout: opts.HeartbeatTimeout,
		sweepInterval:    opts.SweepInterval,
		maxAttempts:      opts.MaxAttempts,
		logf:             opts.Logf,
		client:           opts.HTTPClient,
		workers:          map[string]*member{},
		ring:             NewRing(opts.Replicas),
		joined:           make(chan struct{}),
	}
	if c.heartbeatTimeout <= 0 {
		c.heartbeatTimeout = 5 * time.Second
	}
	if c.sweepInterval <= 0 {
		c.sweepInterval = c.heartbeatTimeout / 4
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 5
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: 10 * time.Second}
	}
	stream := *c.client
	stream.Timeout = 0
	c.stream = &stream
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.srv = serve.New(serve.Options{Executor: c.route, Logf: c.logf})
	go c.sweep()
	return c
}

// Close stops the sweep loop and cuts every job stream. Idempotent.
func (c *Coordinator) Close() { c.cancel() }

// Handler mounts the coordinator API under /v1: every job route comes
// from the embedded serve.Server, so dse.Client, dsexplore -server and
// dseload work unchanged against a coordinator; the membership routes
// (register/heartbeat/deregister/workers) are fleet-only, and cache and
// metrics report the fleet.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.srv.Handler())
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /v1/cache", c.handleCache)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	return mux
}

// JoinRequest is the body of POST /v1/register, /v1/heartbeat, and
// /v1/deregister: the worker's stable ID plus the base URL the
// coordinator dials back (register; optional on heartbeat, where a
// changed URL updates the record).
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url,omitempty"`
}

// JoinResponse acknowledges a register/heartbeat/deregister.
type JoinResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"` // "active" or "draining"
	Workers int    `json:"workers"`
}

// WorkerInfo is one fleet member in GET /v1/workers.
type WorkerInfo struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	State         string  `json:"state"` // "active" or "draining"
	LastHeartbeat float64 `json:"lastHeartbeatMSAgo"`
	ActiveJobs    int     `json:"activeJobs"`
}

func decodeJoin(w http.ResponseWriter, r *http.Request) (*JoinRequest, bool) {
	var req JoinRequest
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleet: decoding join request: %w", err))
		return nil, false
	}
	io.Copy(io.Discard, body)
	if req.ID == "" {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleet: join request needs an id"))
		return nil, false
	}
	return &req, true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeJoin(w, r)
	if !ok {
		return
	}
	if req.URL == "" {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleet: register needs the worker's base url"))
		return
	}
	c.mu.Lock()
	m, known := c.workers[req.ID]
	if !known {
		m = &member{id: req.ID}
		m.ctx, m.cancel = context.WithCancel(c.ctx)
		c.workers[req.ID] = m
	}
	m.url = req.URL
	m.lastBeat = time.Now()
	m.draining = false
	c.ring.Add(req.ID)
	n := c.ring.Len()
	close(c.joined) // wake the jobs waiting for an owner
	c.joined = make(chan struct{})
	c.mu.Unlock()
	if known {
		c.logf("fleet: worker %s re-registered at %s (%d on ring)", req.ID, req.URL, n)
	} else {
		c.logf("fleet: worker %s joined at %s (%d on ring)", req.ID, req.URL, n)
	}
	serve.WriteJSON(w, http.StatusOK, JoinResponse{ID: req.ID, State: "active", Workers: n})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeJoin(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	m, known := c.workers[req.ID]
	var state string
	var n int
	if known {
		m.lastBeat = time.Now()
		if req.URL != "" {
			m.url = req.URL
		}
		state = memberState(m)
		n = c.ring.Len()
	}
	c.mu.Unlock()
	if !known {
		// The worker believes it is registered but the coordinator does
		// not know it (coordinator restart, earlier death verdict). The
		// 404 tells the agent to re-register.
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown worker %q — re-register", req.ID))
		return
	}
	serve.WriteJSON(w, http.StatusOK, JoinResponse{ID: req.ID, State: state, Workers: n})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeJoin(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	m, known := c.workers[req.ID]
	if known {
		m.draining = true
		c.ring.Remove(req.ID)
	}
	n := c.ring.Len()
	c.mu.Unlock()
	if !known {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown worker %q", req.ID))
		return
	}
	c.logf("fleet: worker %s draining — off the ring (%d remain), in-flight jobs finish in place", req.ID, n)
	serve.WriteJSON(w, http.StatusOK, JoinResponse{ID: req.ID, State: "draining", Workers: n})
}

func memberState(m *member) string {
	if m.draining {
		return "draining"
	}
	return "active"
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	active := map[string]int{}
	for _, st := range c.srv.Jobs() {
		if st.State == serve.StateRunning {
			active[st.Worker]++
		}
	}
	now := time.Now()
	c.mu.Lock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, m := range c.workers {
		out = append(out, WorkerInfo{
			ID: m.id, URL: m.url, State: memberState(m),
			LastHeartbeat: float64(now.Sub(m.lastBeat).Microseconds()) / 1e3,
			ActiveJobs:    active[m.id],
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	serve.WriteJSON(w, http.StatusOK, out)
}

// dropLocked declares a worker dead: off the ring and out of the member
// table. Cancelling its context cuts its job streams, and each of those
// jobs re-routes to the new owner of its key. Caller holds c.mu.
func (c *Coordinator) dropLocked(m *member, why string) {
	delete(c.workers, m.id)
	c.ring.Remove(m.id)
	m.cancel()
	c.logf("fleet: worker %s dropped (%s), %d workers remain", m.id, why, c.ring.Len())
}

// sweep is the liveness monitor: workers silent past the heartbeat
// timeout are dropped.
func (c *Coordinator) sweep() {
	tick := time.NewTicker(c.sweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-c.ctx.Done():
			return
		}
		now := time.Now()
		c.mu.Lock()
		for _, m := range c.workers {
			if now.Sub(m.lastBeat) > c.heartbeatTimeout {
				c.dropLocked(m, "missed heartbeats")
			}
		}
		c.mu.Unlock()
	}
}

// WorkerCache is one worker's cache statistics in the fleet aggregate.
type WorkerCache struct {
	ID string `json:"id"`
	serve.CacheInfo
}

// CacheInfo is the fleet-wide GET /v1/cache shape: the summed counters
// across every reachable worker (decodable as serve.CacheInfo, so
// dse.Client.CacheStats works against a coordinator) plus the per-worker
// breakdown.
type CacheInfo struct {
	Enabled bool `json:"enabled"`
	memo.Stats
	Workers []WorkerCache `json:"workerCaches,omitempty"`
}

func (c *Coordinator) handleCache(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, m := range c.workers {
		targets = append(targets, target{m.id, m.url})
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, k int) bool { return targets[i].id < targets[k].id })

	out := CacheInfo{}
	out.Policy = "fleet"
	for _, t := range targets {
		resp, err := c.client.Get(t.url + "/v1/cache")
		if err != nil {
			continue
		}
		var info serve.CacheInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			continue
		}
		out.Workers = append(out.Workers, WorkerCache{ID: t.id, CacheInfo: info})
		if info.Enabled {
			out.Enabled = true
			out.Hits += info.Hits
			out.Misses += info.Misses
			out.Shared += info.Shared
			out.Evictions += info.Evictions
			out.Expirations += info.Expirations
			out.StaleServes += info.StaleServes
			out.Refreshes += info.Refreshes
			out.Entries += info.Entries
			out.Capacity += info.Capacity
		}
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := map[string]int{
		serve.StateQueued: 0, serve.StateRunning: 0,
		serve.StateDone: 0, serve.StateFailed: 0, serve.StateCanceled: 0,
	}
	for _, st := range c.srv.Jobs() {
		states[st.State]++
	}
	c.mu.Lock()
	workers := map[string]int{"active": 0, "draining": 0}
	for _, m := range c.workers {
		workers[memberState(m)]++
	}
	requeues, dispatchErrors := c.requeues, c.dispatchErrors
	c.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "# HELP dse_fleet_workers Registered workers by state.\n# TYPE dse_fleet_workers gauge\n")
	for _, s := range []string{"active", "draining"} {
		fmt.Fprintf(w, "dse_fleet_workers{state=%s} %d\n", strconv.Quote(s), workers[s])
	}
	fmt.Fprint(w, "# HELP dse_fleet_jobs Jobs resident in the coordinator table by state.\n# TYPE dse_fleet_jobs gauge\n")
	for _, s := range []string{serve.StateQueued, serve.StateRunning, serve.StateDone, serve.StateFailed, serve.StateCanceled} {
		fmt.Fprintf(w, "dse_fleet_jobs{state=%s} %d\n", strconv.Quote(s), states[s])
	}
	fmt.Fprint(w, "# HELP dse_fleet_requeues_total Jobs re-routed off lost or refusing workers.\n# TYPE dse_fleet_requeues_total counter\n")
	fmt.Fprintf(w, "dse_fleet_requeues_total %d\n", requeues)
	fmt.Fprint(w, "# HELP dse_fleet_dispatch_errors_total Job dispatches that failed and were retried.\n# TYPE dse_fleet_dispatch_errors_total counter\n")
	fmt.Fprintf(w, "dse_fleet_dispatch_errors_total %d\n", dispatchErrors)
}

// Requeues returns the lifetime re-queue count (test and ops hook).
func (c *Coordinator) Requeues() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requeues
}

// Assignment reports the worker that computes (or computed) job id;
// empty while the job is queued, or when the ID is unknown.
func (c *Coordinator) Assignment(id string) string {
	for _, st := range c.srv.Jobs() {
		if st.ID == id {
			return st.Worker
		}
	}
	return ""
}

// Workers returns the registered worker IDs, sorted (drainers included).
func (c *Coordinator) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for id := range c.workers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
