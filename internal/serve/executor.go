package serve

import (
	"context"
	"time"

	"repro/internal/runner"
	"repro/internal/search"
)

// Executor is the Server's compute seam. The Server owns the job table,
// the /v1 routes, retention and drain; the executor turns a spec into
// its computation. The default executor runs the engine in-process over
// the server's result cache; the fleet coordinator plugs in a routed
// executor that streams each job to the worker owning its cache shard.
//
// An Executor error rejects the request with 400 before any job exists.
type Executor func(spec *JobSpec) (Task, error)

// Task computes one admitted job. It publishes through p and returns
// the summary — partial, or nil, when ctx is cancelled — and the error
// that decides the job's terminal state.
type Task func(ctx context.Context, p *Progress) (*JobSummary, error)

// Progress is a task's handle on its job record. A synchronous /v1/run
// has no record: there only Emit has an effect, streaming each event
// straight to the client.
type Progress struct {
	job  *job          // nil for a synchronous /v1/run
	sem  chan struct{} // the server's MaxJobs compute slots
	held bool
	emit func(RunEvent)
}

// Admit waits for one of the server's MaxJobs compute slots and marks
// the job running; the slot frees when the task returns. A synchronous
// /v1/run is admitted on arrival, so there Admit returns at once.
func (p *Progress) Admit(ctx context.Context) error {
	if p.job == nil {
		return nil
	}
	select {
	case p.sem <- struct{}{}:
		p.held = true
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p.job.setState(StateRunning, time.Now().UTC())
	return nil
}

// release frees the compute slot Admit took, if any.
func (p *Progress) release() {
	if p.held {
		<-p.sem
		p.held = false
	}
}

// Dispatched marks the job running on the named remote worker; it takes
// no local compute slot.
func (p *Progress) Dispatched(worker string) {
	if p.job != nil {
		p.job.place(StateRunning, worker)
	}
}

// Requeued returns the job to queued with no worker, keeping the events
// it has already published.
func (p *Progress) Requeued() {
	if p.job != nil {
		p.job.place(StateQueued, "")
	}
}

// Emit publishes one completed run. Tasks emit strictly in run order.
func (p *Progress) Emit(e RunEvent) { p.emit(e) }

// local is the default executor: resolve the spec, build its strategy
// factory, and run the multi-run engine behind the result cache.
func (s *Server) local(spec *JobSpec) (Task, error) {
	res, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	// Build the factory at admission: a spec that cannot construct its
	// strategy is a 400, not a failed job.
	factory, err := search.NewFactory(res.strategy, res.app, res.arch, res.cfg)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, p *Progress) (*JobSummary, error) {
		if err := p.Admit(ctx); err != nil {
			return nil, err
		}
		if res.transfer {
			// Warm-start from the best cached donor on this instance pair
			// (no-op without a cache or donor). Must precede WithCache so the
			// donor key is folded into the job's cache keys.
			runner.ApplyTransfer(factory, s.cache)
		}
		fn, err := runner.WithCache(runner.CacheConfig{Cache: s.cache, Factory: factory, MaxSteps: res.maxSteps})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		agg, err := runner.Run(ctx, res.app, runner.Options{
			Runs:     res.runs,
			Workers:  spec.Workers,
			BaseSeed: spec.Seed,
			OnResult: func(r runner.RunResult) { p.Emit(eventOf(r)) },
		}, fn)
		if agg == nil {
			return nil, err
		}
		return summarize(agg, time.Since(start)), err
	}, nil
}
