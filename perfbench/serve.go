package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/dse"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/serve"
)

// traffic is the seeded request sequence of serve-mix: request i submits
// spec seq[i]. A request is a new spec with probability NewEvery, else a
// repeat of one of the Recent most recent distinct specs. The sequence is
// a pure function of the seed, extended lazily as clients consume it.
type traffic struct {
	mu       sync.Mutex
	w        *serveWorkload
	maxSteps int // per-run step cap carried by every spec (0 = scenario budget)
	rng      *rand.Rand
	specs    []dse.JobSpec // distinct specs, in order of first appearance
	scen     []int         // spec index → index into w.Scenarios
	seq      []int
}

func newTraffic(w *serveWorkload, opt options) *traffic {
	return &traffic{w: w, maxSteps: opt.maxSteps, rng: rand.New(rand.NewSource(opt.seed))}
}

// at returns the spec index of request i.
func (t *traffic) at(i int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.seq) <= i {
		if len(t.specs) == 0 || t.rng.Float64() < t.w.NewEvery {
			k := t.rng.Intn(len(t.w.Scenarios))
			sc := t.w.Scenarios[k]
			t.specs = append(t.specs, dse.JobSpec{
				Scenario: sc.Scenario,
				Strategy: "sa",
				Runs:     t.w.Runs,
				Seed:     t.rng.Int63n(1 << 31),
				SAIters:  sc.SAIters,
				MaxSteps: t.maxSteps,
				Workers:  1,
			})
			t.scen = append(t.scen, k)
			t.seq = append(t.seq, len(t.specs)-1)
			continue
		}
		recent := min(t.w.Recent, len(t.specs))
		t.seq = append(t.seq, len(t.specs)-recent+t.rng.Intn(recent))
	}
	return t.seq[i]
}

func (t *traffic) spec(si int) (dse.JobSpec, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.specs[si], t.scen[si]
}

// distinct extends the sequence until it holds n distinct specs.
func (t *traffic) distinct(n int) {
	for i := 0; ; i++ {
		t.at(i)
		t.mu.Lock()
		done := len(t.specs) >= n
		t.mu.Unlock()
		if done {
			return
		}
	}
}

// liveServer is a dsed job server on a loopback port.
type liveServer struct {
	cache  *runner.ResultCache
	http   *http.Server
	done   chan struct{}
	client *dse.Client
}

// startServer builds the result cache and server, starts serving on a
// loopback port and waits for the first health check to pass.
func startServer(ctx context.Context, entries int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cache := runner.NewResultCacheWith(runner.ResultCacheOptions{Capacity: entries})
	srv := serve.New(serve.Options{Cache: cache, Logf: func(string, ...interface{}) {}})
	l := &liveServer{
		cache:  cache,
		http:   &http.Server{Handler: srv.Handler()},
		done:   make(chan struct{}),
		client: dse.NewClient("http://" + ln.Addr().String()),
	}
	go func() {
		defer close(l.done)
		l.http.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	if err := l.client.Health(ctx); err != nil {
		l.stop()
		return nil, err
	}
	return l, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (l *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.http.Shutdown(ctx); err != nil {
		l.http.Close()
	}
	<-l.done
}

// served is one request as the client saw it, kept small: a run holds
// tens of thousands and its peak RSS is reported.
type served struct {
	spec     int
	latency  time.Duration
	warm     bool // the server reported a cache hit for every run
	bestCost float64
	wallMS   float64
	digest   [32]byte
	err      error
}

// digest fingerprints a job's quality fields: the summary and every run's
// result, without timings or cache provenance.
func digest(sum *dse.JobSummary, events []dse.JobEvent) [32]byte {
	type ev struct {
		Run         int
		Seed        int64
		Cost        float64
		MakespanMS  float64
		Contexts    int
		Evaluations int
		MetDeadline bool
	}
	q := struct {
		Requested, Completed, BestRun, FrontSize, DeadlineMet int
		BestSeed                                              int64
		BestCost, BestMakespanMS, MeanMakespanMS              float64
		Runs                                                  []ev
	}{sum.Requested, sum.Completed, sum.BestRun, sum.FrontSize, sum.DeadlineMet,
		sum.BestSeed, sum.BestCost, sum.BestMakespanMS, sum.MeanMakespanMS, nil}
	for _, e := range events {
		q.Runs = append(q.Runs, ev{e.Run, e.Seed, e.Cost, e.MakespanMS, e.Contexts, e.Evaluations, e.MetDeadline})
	}
	b, _ := json.Marshal(q) // a struct of numbers always encodes
	return sha256.Sum256(b)
}

// drive runs the closed loop: w.Clients goroutines each submit the next
// request of the sequence and wait for its summary, until the deadline
// passes or limit requests (limit > 0) have been issued. Every
// samplePeriod the clients stop between requests and, with nothing else
// running, hs times samplesPerRun kernel runs; the time spent so is
// returned with the requests.
func (t *traffic) drive(ctx context.Context, l *liveServer, deadline time.Time, limit int, hs *hostSpeed, tr *tracer, root int) ([]served, time.Duration) {
	var next atomic.Int64
	out := make([][]served, t.w.Clients)
	spent := hs.spent
	for epoch := time.Now(); epoch.Before(deadline) && ctx.Err() == nil && (limit <= 0 || int(next.Load()) < limit); epoch = time.Now() {
		end := epoch.Add(samplePeriod)
		if end.After(deadline) {
			end = deadline
		}
		var wg sync.WaitGroup
		for c := 0; c < t.w.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cs := tr.begin("client", root, 0)
				defer tr.end(cs)
				for time.Now().Before(end) && ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if limit > 0 && i >= limit {
						return
					}
					out[c] = append(out[c], t.request(ctx, l, i, tr, cs))
				}
			}(c)
		}
		wg.Wait()
		hs.sample(samplesPerRun)
	}
	var all []served
	for _, o := range out {
		all = append(all, o...)
	}
	return all, hs.spent - spent
}

// request submits request i of the sequence and waits for its summary.
func (t *traffic) request(ctx context.Context, l *liveServer, i int, tr *tracer, parent int) served {
	si := t.at(i)
	spec, _ := t.spec(si)
	var events []dse.JobEvent
	rq := tr.begin("request", parent, 0)
	t0 := time.Now()
	sum, err := l.client.RunJob(ctx, spec, func(e dse.JobEvent) { events = append(events, e) })
	lat := time.Since(t0)
	tr.end(rq)
	s := served{spec: si, latency: lat, err: err}
	if err == nil {
		s.warm = sum.CacheHits >= sum.Requested
		s.bestCost, s.wallMS = sum.BestCost, sum.WallMS
		s.digest = digest(sum, events)
	}
	return s
}

// reference computes spec si in-process, straight on the runner with no
// cache and no HTTP (fns[k] runs scenario k), and returns its digest and
// best cost.
func (t *traffic) reference(ctx context.Context, ps []*prepared, fns []runner.RunFunc, si int) (ref, error) {
	spec, k := t.spec(si)
	p := ps[k]
	var events []dse.JobEvent
	start := time.Now()
	agg, err := runner.Run(ctx, p.app, runner.Options{
		Runs:     spec.Runs,
		Workers:  1,
		BaseSeed: spec.Seed,
		OnResult: func(r runner.RunResult) {
			events = append(events, dse.JobEvent{
				Run: r.Run, Seed: r.Seed, Cost: r.Outcome.Cost,
				MakespanMS: r.Outcome.Eval.Makespan.Millis(), Contexts: r.Outcome.Eval.Contexts,
				Evaluations: r.Outcome.Evaluations, MetDeadline: r.Outcome.MetDeadline,
			})
		},
	}, fns[k])
	if err != nil {
		return ref{}, err
	}
	if !agg.BestHasCost {
		return ref{}, errors.New("reference run reported no cost")
	}
	sum := &dse.JobSummary{
		Requested: agg.Requested, Completed: agg.Completed, BestCost: agg.BestCost,
		BestRun: agg.BestRun, BestSeed: agg.BestSeed,
		BestMakespanMS: agg.BestEval.Makespan.Millis(), MeanMakespanMS: agg.MakespanMS.Mean(),
		DeadlineMet: agg.DeadlineMet, Evaluations: agg.Evaluations,
		WallMS: float64(time.Since(start).Microseconds()) / 1e3,
	}
	if agg.Front != nil {
		sum.FrontSize = agg.Front.Len()
	}
	return ref{digest: digest(sum, events), bestCost: sum.BestCost}, nil
}

// ref is the in-process result of one spec.
type ref struct {
	digest   [32]byte
	bestCost float64
	err      error
}

// references computes the reference of every listed spec on w.Clients
// goroutines.
func (t *traffic) references(ctx context.Context, ps []*prepared, specs []int) map[int]ref {
	refs := map[int]ref{}
	// StrategyBudget configures its factory, so build each RunFunc before
	// the goroutines share it.
	fns := make([]runner.RunFunc, len(ps))
	for k, p := range ps {
		fns[k] = runner.StrategyBudget(p.factory, p.maxSteps)
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < t.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				r, err := t.reference(ctx, ps, fns, specs[i])
				r.err = err
				mu.Lock()
				refs[specs[i]] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return refs
}

// setupServe prepares the serve scenarios the way dsed resolves their
// specs; the preparation is the reference path's, not a server cache.
func setupServe(w *serveWorkload, opt options) ([]*prepared, error) {
	ps := make([]*prepared, len(w.Scenarios))
	for i, t := range w.Scenarios {
		p, err := prepare(t, "sa", 1, opt.maxSteps)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// checkServed compares every served result with the in-process reference
// of its spec; a mismatch or a request error is a failure.
func checkServed(reqs []served, refs map[int]ref, tl *tally) {
	for _, s := range reqs {
		tl.attempted++
		switch {
		case s.err != nil:
			tl.fail("request: %v", s.err)
		case refs[s.spec].err != nil:
			tl.fail("reference of spec %d: %v", s.spec, refs[s.spec].err)
		case s.digest != refs[s.spec].digest:
			tl.fail("spec %d: served result differs from the in-process computation", s.spec)
		}
	}
}

func distinctSpecs(reqs []served) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range reqs {
		if !seen[s.spec] {
			seen[s.spec] = true
			out = append(out, s.spec)
		}
	}
	return out
}

// runServe is the untraced run of serve-mix: the end-to-end metrics.
func runServe(ctx context.Context, w *workload, opt options) (*report, error) {
	sw := w.serve
	r := newReport()
	l, setupS, err := timedSetup(opt.setupReps, func() (*liveServer, error) {
		l, err := startServer(ctx, sw.CacheEntries)
		if err == nil {
			l.stop()
		}
		return l, err
	})
	if err != nil {
		return nil, err
	}
	if l, err = startServer(ctx, sw.CacheEntries); err != nil {
		return nil, err
	}
	ps, err := setupServe(sw, opt)
	if err != nil {
		l.stop()
		return nil, err
	}
	var hs hostSpeed
	hs.sample(calibrationSamples)
	traf := newTraffic(sw, opt)
	start := time.Now()
	reqs, sampling := traf.drive(ctx, l, start.Add(opt.seconds), 0, &hs, nil, 0)
	busy := time.Since(start) - sampling
	l.stop()

	// best_cost covers the first QualitySpecs distinct specs of the
	// sequence, served or not, so it depends on the seed alone.
	traf.distinct(sw.QualitySpecs)
	check := distinctSpecs(reqs)
	seen := map[int]bool{}
	for _, si := range check {
		seen[si] = true
	}
	for si := 0; si < sw.QualitySpecs; si++ {
		if !seen[si] {
			check = append(check, si)
		}
	}
	refs := traf.references(ctx, ps, check)
	checkServed(reqs, refs, &r.tally)

	groups := scenarioNames(sw.Scenarios)
	tt, wall, atWall, best := samples{}, samples{}, samples{}, samples{}
	var all, cold, warm []float64
	misses := 0
	wallScale := hs.scale()
	for _, s := range reqs {
		if s.err != nil {
			continue
		}
		_, k := traf.spec(s.spec)
		t := sw.Scenarios[k]
		lat := s.latency.Seconds()
		all = append(all, 1e3*lat)
		if s.warm {
			warm = append(warm, 1e3*lat)
		} else {
			cold = append(cold, 1e3*lat)
			wall.add(t.Scenario, lat)
			if s.bestCost <= t.Cost {
				tt.add(t.Scenario, lat)
			} else {
				tt.add(t.Scenario, math.Inf(1))
				misses++
			}
		}
		if float64(s.latency)*wallScale <= float64(t.Wall) {
			atWall.add(t.Scenario, s.bestCost)
		}
	}
	for si := 0; si < sw.QualitySpecs; si++ {
		if ref := refs[si]; ref.err == nil {
			_, k := traf.spec(si)
			best.add(sw.Scenarios[k].Scenario, ref.bestCost)
		}
	}
	r.metrics.set("tt_target_s", tt.medianGeo(groups), "s")
	r.metrics.set("run_wall_s", wall.medianGeo(groups), "s")
	r.metrics.set("cost_at_wall", atWall.medianGeo(groups), "cost")
	r.metrics.set("best_cost", best.medianGeo(groups), "cost")
	r.metrics.set("job_p50_ms", median(all), "ms")
	r.metrics.set("job_p99_ms", quantile(all, 0.99), "ms")
	r.metrics.set("jobs_per_s", float64(len(all))/busy.Seconds(), "1/s")
	r.extra.set("cold_job_p50_ms", median(cold), "ms")
	r.extra.set("warm_job_p50_ms", median(warm), "ms")
	r.extra.set("target_miss_ratio", ratio(float64(misses), float64(len(cold))), "ratio")
	r.extra.set("samples.requests", float64(len(reqs)), "count")
	r.extra.set("samples.cold", float64(len(cold)), "count")
	r.extra.set("samples.warm", float64(len(warm)), "count")
	r.extra.set("samples.distinct_specs", float64(len(refs)), "count")
	return r, finishCommon(r, &hs, setupS)
}

// traceServe is the traced run of serve-mix: the same request prefix
// untraced and traced (the difference in job_p50_ms is the tracing
// overhead), the serve, runner and memo layers from the traced pass, then
// traced in-process search runs and the ladder probes on its scenarios.
func traceServe(ctx context.Context, w *workload, opt options) (*report, error) {
	sw := w.serve
	r := newReport()
	ps, err := setupServe(sw, opt)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p.ref = sched.NewEvaluator(p.app, p.arch)
	}
	var hs hostSpeed
	hs.sample(calibrationSamples)
	pass := func(limit int, tr *tracer, root int) ([]served, *liveServer, error) {
		l, err := startServer(ctx, sw.CacheEntries)
		if err != nil {
			return nil, nil, err
		}
		traf := newTraffic(sw, opt)
		deadline := time.Now().Add(opt.seconds / 4)
		if limit > 0 {
			deadline = time.Now().Add(opt.seconds)
		}
		reqs, _ := traf.drive(ctx, l, deadline, limit, &hs, tr, root)
		l.stop()
		return reqs, l, nil
	}
	untraced, _, err := pass(0, nil, 0)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	root := tr.begin("workload", 0, 0)
	traced, l, err := pass(len(untraced), tr, root)
	if err != nil {
		return nil, err
	}
	traf := newTraffic(sw, opt)
	for i := range untraced {
		traf.at(i)
	}
	refs := traf.references(ctx, ps, distinctSpecs(append(untraced, traced...)))
	checkServed(untraced, refs, &r.tally)
	checkServed(traced, refs, &r.tally)

	var lat0, lat1, over, runCold, runWarm []float64
	for _, s := range untraced {
		if s.err == nil {
			lat0 = append(lat0, ms(s.latency))
		}
	}
	for _, s := range traced {
		if s.err != nil {
			continue
		}
		lat1 = append(lat1, ms(s.latency))
		over = append(over, ms(s.latency)-s.wallMS)
		if s.warm {
			runWarm = append(runWarm, s.wallMS)
		} else {
			runCold = append(runCold, s.wallMS)
		}
	}
	r.metrics.set("trace.overhead_pct", 100*(median(lat1)-median(lat0))/median(lat0), "%")
	r.metrics.set("serve.overhead_ms", median(over), "ms")
	r.metrics.set("runner.run_ms.cold", median(runCold), "ms")
	r.metrics.set("runner.run_ms.warm", median(runWarm), "ms")
	st := l.cache.Stats()
	r.metrics.set("memo.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio")
	r.metrics.set("memo.evictions", float64(st.Evictions), "count")
	r.metrics.set("memo.shared", float64(st.Shared), "count")

	// The search and ladder rungs, on the scenarios the jobs run.
	seeds := seedStream(opt.seed)
	var runs []*runRecord
	var lad ladder
	for _, p := range ps {
		sp := tr.begin("scenario", root, 0)
		for round := 0; round < 3; round++ {
			if rec := runChecked(p, seeds(round), p.target.Wall, opt, tr, sp, &r.tally); rec != nil {
				runs = append(runs, rec)
			}
			hs.sample(samplesPerRun)
		}
		tr.end(sp)
		lad.probe(p, seeds, opt.seconds/(4*time.Duration(len(ps))), tr, root, &r.tally)
	}
	tr.end(root)
	searchLayer(r.metrics, runs, "sa")
	lad.report(r.metrics)
	tr.selfShares(r.metrics)
	hs.normalize(r)
	if err := tr.write(opt.traceDir, w.Name, opt.seed); err != nil {
		return nil, err
	}
	return r, nil
}
