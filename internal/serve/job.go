package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
)

// JobSpec describes one exploration job: either a named scenario from the
// corpus or an inline (application, architecture) pair, plus the strategy
// and budget knobs. The zero values defer to the scenario's budget (or
// the engine defaults for inline models).
type JobSpec struct {
	// Scenario names a corpus entry ("fig2-small", "layered-160", ...).
	// Mutually exclusive with App/Arch.
	Scenario string `json:"scenario,omitempty"`
	// App and Arch are inline models (the dsexplore JSON schema). Both
	// must be present when Scenario is empty.
	App  *model.App  `json:"app,omitempty"`
	Arch *model.Arch `json:"arch,omitempty"`
	// Strategy is the search strategy name; empty selects "sa".
	Strategy string `json:"strategy,omitempty"`
	// Runs is the number of independent runs (0 = the scenario's budget,
	// or 1 for inline models).
	Runs int `json:"runs,omitempty"`
	// Seed is the base of the per-run seed stream.
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps caps driver steps per run (0 = the scenario's budget, or
	// run to exhaustion for inline models).
	MaxSteps int `json:"maxSteps,omitempty"`
	// SAIters overrides the annealing iteration budget when positive —
	// part of the job's budget identity, so it participates in the cache
	// key through the strategy fingerprint.
	SAIters int `json:"saIters,omitempty"`
	// Quality overrides the Lam schedule quality λ when positive
	// (dsexplore -quality).
	Quality float64 `json:"quality,omitempty"`
	// WArea and WReconf, when non-zero, add objective weights on occupied
	// hardware area (cost units per CLB) and on reconfiguration time
	// (cost units per ms, initial+dynamic) — the dsexplore -w-area /
	// -w-reconf knobs. Like every objective setting they are part of the
	// cache key through the strategy fingerprint.
	WArea   float64 `json:"wArea,omitempty"`
	WReconf float64 `json:"wReconf,omitempty"`
	// Workers bounds the per-job worker pool (0 = NumCPU).
	Workers int `json:"workers,omitempty"`
	// Batch, when >1, enables speculative batched move evaluation of that
	// width for SA runs (dsexplore -batch). It changes the annealing
	// trajectory, so it is part of the cache key through the strategy
	// fingerprint. BatchWorkers bounds the goroutines scoring each batch
	// (0 = GOMAXPROCS) — pure throughput, deliberately absent from the
	// fingerprint.
	Batch        int `json:"batch,omitempty"`
	BatchWorkers int `json:"batchWorkers,omitempty"`
	// BatchKernel selects the batch scoring backend ("auto"/""/
	// "shadow"/"lanes" — dsexplore -batch-kernel). The kernels are
	// bit-identical, so like BatchWorkers it stays out of the fingerprint.
	BatchKernel string `json:"batchKernel,omitempty"`
	// EarlyStopEpsilon/EarlyStopWindow enable the driver-level adaptive
	// early stop (dsexplore -early-stop / -early-stop-window); both are
	// fingerprinted since truncation changes results.
	EarlyStopEpsilon float64 `json:"earlyStopEpsilon,omitempty"`
	EarlyStopWindow  int     `json:"earlyStopWindow,omitempty"`
	// DeadlineMS is the real-time constraint for inline models in
	// milliseconds (ignored for scenarios, which carry their own).
	DeadlineMS float64 `json:"deadlineMS,omitempty"`
	// Sched selects the composite-strategy scheduling policy ("rr",
	// "ucb"; empty keeps the kind's default) and SchedSlice the UCB
	// budget-slice length in driver steps (0 = the engine default). Both
	// are fingerprinted, so they are part of the cache key; non-composite
	// strategies ignore them.
	Sched      string `json:"sched,omitempty"`
	SchedSlice int    `json:"schedSlice,omitempty"`
	// Transfer warm-starts the job from the best cached outcome on the
	// same (app, arch) pair, when the server holds one. The donor key is
	// folded into the job's fingerprint and cache keys.
	Transfer bool `json:"transfer,omitempty"`
}

// resolved is a spec translated into runnable form.
type resolved struct {
	app      *model.App
	arch     *model.Arch
	cfg      search.Config
	strategy string
	runs     int
	maxSteps int
	transfer bool
}

// frontMetrics is the area/makespan trade-off every job archives.
var frontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}

// resolve validates the spec and instantiates its models and search
// configuration.
func resolve(spec *JobSpec) (*resolved, error) {
	r := &resolved{strategy: spec.Strategy, runs: spec.Runs, maxSteps: spec.MaxSteps}
	if r.strategy == "" {
		r.strategy = "sa"
	}
	known := false
	for _, n := range search.Names() {
		if r.strategy == n {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("serve: unknown strategy %q (have %v)", r.strategy, search.Names())
	}
	switch {
	case spec.Scenario != "" && (spec.App != nil || spec.Arch != nil):
		return nil, fmt.Errorf("serve: a job names a scenario or carries inline models, not both")
	case spec.Scenario != "":
		s, ok := scenario.Lookup(spec.Scenario)
		if !ok {
			return nil, fmt.Errorf("serve: unknown scenario %q (have %v)", spec.Scenario, scenario.Names())
		}
		app, arch, err := s.Instantiate()
		if err != nil {
			return nil, err
		}
		r.app, r.arch = app, arch
		r.cfg = s.SearchConfig()
		if r.runs <= 0 {
			r.runs = s.Budget.Runs
		}
		if r.maxSteps <= 0 {
			r.maxSteps = s.Budget.MaxSteps
		}
	case spec.App != nil && spec.Arch != nil:
		if err := spec.App.Validate(); err != nil {
			return nil, fmt.Errorf("serve: inline application: %w", err)
		}
		if err := spec.Arch.Validate(); err != nil {
			return nil, fmt.Errorf("serve: inline architecture: %w", err)
		}
		r.app, r.arch = spec.App, spec.Arch
		r.cfg = search.DefaultConfig()
		r.cfg.SA.Deadline = model.FromMillis(spec.DeadlineMS)
	default:
		return nil, fmt.Errorf("serve: a job needs a scenario name or both inline models")
	}
	if r.runs <= 0 {
		r.runs = 1
	}
	if spec.SAIters > 0 {
		r.cfg.SA.MaxIters = spec.SAIters
	}
	if spec.Quality > 0 {
		r.cfg.SA.Quality = spec.Quality
	}
	if spec.Batch > 1 {
		r.cfg.SA.Batch = spec.Batch
	}
	if spec.BatchWorkers > 0 {
		r.cfg.SA.BatchWorkers = spec.BatchWorkers
	}
	kernel, err := core.ParseBatchKernel(spec.BatchKernel)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	r.cfg.SA.BatchKernel = kernel
	if spec.EarlyStopEpsilon > 0 && spec.EarlyStopWindow > 0 {
		r.cfg.EarlyStopEpsilon = spec.EarlyStopEpsilon
		r.cfg.EarlyStopWindow = spec.EarlyStopWindow
	}
	if spec.Sched != "" && !search.ValidSchedPolicy(spec.Sched) {
		return nil, fmt.Errorf("serve: unknown sched policy %q (have %q, %q)", spec.Sched, search.SchedRR, search.SchedUCB)
	}
	r.cfg.Sched = spec.Sched
	if spec.SchedSlice < 0 {
		return nil, fmt.Errorf("serve: negative sched slice %d", spec.SchedSlice)
	}
	r.cfg.SchedSlice = spec.SchedSlice
	r.transfer = spec.Transfer
	if spec.WArea != 0 || spec.WReconf != 0 {
		// Mirror dsexplore's local weighting exactly, so a job shipped to
		// the server optimizes the same cost as the identical local run.
		scal := objective.FixedArch()
		scal.Weights[objective.HWArea] = spec.WArea
		scal.Weights[objective.InitialReconfig] = spec.WReconf
		scal.Weights[objective.DynamicReconfig] = spec.WReconf
		r.cfg.Objective = &scal
	}
	r.cfg.FrontMetrics = frontMetrics
	return r, nil
}

// RunEvent is one completed run as streamed to clients (NDJSON lines).
type RunEvent struct {
	Run         int     `json:"run"`
	Seed        int64   `json:"seed"`
	Cost        float64 `json:"cost"`
	MakespanMS  float64 `json:"makespanMS"`
	Contexts    int     `json:"contexts"`
	Evaluations int     `json:"evaluations"`
	MetDeadline bool    `json:"metDeadline"`
	Cached      bool    `json:"cached,omitempty"`
}

// JobSummary is the aggregate of a finished (or cancelled) job.
type JobSummary struct {
	Requested      int     `json:"requested"`
	Completed      int     `json:"completed"`
	BestCost       float64 `json:"bestCost"`
	BestRun        int     `json:"bestRun"`
	BestSeed       int64   `json:"bestSeed"`
	BestMakespanMS float64 `json:"bestMakespanMS"`
	MeanMakespanMS float64 `json:"meanMakespanMS"`
	FrontSize      int     `json:"frontSize"`
	DeadlineMet    int     `json:"deadlineMet"`
	Evaluations    int     `json:"evaluations"`
	CacheHits      int     `json:"cacheHits"`
	WallMS         float64 `json:"wallMS"`
	// Sched is the composite runs' scheduling policy; TransferKey,
	// TransferCost and TransferRuns report the warm-start donor when the
	// job was transfer-seeded. All omitted otherwise.
	Sched        string  `json:"sched,omitempty"`
	TransferKey  string  `json:"transferKey,omitempty"`
	TransferCost float64 `json:"transferCost,omitempty"`
	TransferRuns int     `json:"transferRuns,omitempty"`
}

// summarize folds a run aggregate into the wire summary.
func summarize(agg *runner.Aggregate, wall time.Duration) *JobSummary {
	s := &JobSummary{
		Requested:      agg.Requested,
		Completed:      agg.Completed,
		BestRun:        agg.BestRun,
		BestSeed:       agg.BestSeed,
		BestMakespanMS: agg.BestEval.Makespan.Millis(),
		MeanMakespanMS: agg.MakespanMS.Mean(),
		DeadlineMet:    agg.DeadlineMet,
		Evaluations:    agg.Evaluations,
		CacheHits:      agg.CacheHits,
		WallMS:         float64(wall.Microseconds()) / 1e3,
		Sched:          agg.SchedPolicy,
		TransferKey:    agg.TransferKey,
		TransferCost:   agg.TransferCost,
		TransferRuns:   agg.TransferRuns,
	}
	if agg.BestHasCost {
		s.BestCost = agg.BestCost
	}
	if agg.Front != nil {
		s.FrontSize = agg.Front.Len()
	}
	return s
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Worker names the fleet worker computing the job (coordinator only).
	Worker    string      `json:"worker,omitempty"`
	Spec      JobSpec     `json:"spec"`
	Error     string      `json:"error,omitempty"`
	Summary   *JobSummary `json:"summary,omitempty"`
	Events    int         `json:"events"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
}

// terminal reports whether the state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// job is the server-side record: status + event buffer + subscriber set.
type job struct {
	mu     sync.Mutex
	status JobStatus
	events []RunEvent
	subs   map[chan struct{}]bool
	cancel context.CancelFunc
}

// snapshot returns a copy of the status under the lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	st.Events = len(j.events)
	return st
}

// notify wakes every subscriber (non-blocking: each channel has capacity
// one, a pending wakeup is as good as two).
func (j *job) notify() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a wakeup channel; the returned func removes it.
func (j *job) subscribe() (chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan struct{}]bool{}
	}
	j.subs[ch] = true
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// addEvent appends a run event and wakes the streamers.
func (j *job) addEvent(e RunEvent) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.notify()
	j.mu.Unlock()
}

// eventsFrom copies the buffered events starting at index from.
func (j *job) eventsFrom(from int) ([]RunEvent, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from >= len(j.events) {
		return nil, j.status.State
	}
	out := append([]RunEvent(nil), j.events[from:]...)
	return out, j.status.State
}

// setState transitions the job, stamping timestamps and waking streamers.
func (j *job) setState(state string, now time.Time) {
	j.mu.Lock()
	j.setStateLocked(state, now)
	j.mu.Unlock()
}

func (j *job) setStateLocked(state string, now time.Time) {
	j.status.State = state
	switch state {
	case StateQueued:
		j.status.Started = nil
	case StateRunning:
		j.status.Started = &now
	case StateDone, StateFailed, StateCanceled:
		j.status.Finished = &now
	}
	j.notify()
}

// place moves a job between queued and running on a fleet worker.
func (j *job) place(state, worker string) {
	j.mu.Lock()
	j.status.Worker = worker
	j.setStateLocked(state, time.Now().UTC())
	j.mu.Unlock()
}

// eventOf projects one completed run onto the wire event.
func eventOf(r runner.RunResult) RunEvent {
	return RunEvent{
		Run:         r.Run,
		Seed:        r.Seed,
		Cost:        r.Outcome.Cost,
		MakespanMS:  r.Outcome.Eval.Makespan.Millis(),
		Contexts:    r.Outcome.Eval.Contexts,
		Evaluations: r.Outcome.Evaluations,
		MetDeadline: r.Outcome.MetDeadline,
		Cached:      r.Outcome.FromCache,
	}
}
