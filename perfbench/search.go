package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/search"
)

// prepared is one scenario ready to run: models, search configuration,
// factory, and the reference evaluator the outputs are checked against.
type prepared struct {
	target   target
	app      *model.App
	arch     *model.Arch
	cfg      search.Config
	scal     objective.Scalarizer
	factory  *search.Factory
	maxSteps int
	ref      *sched.Evaluator
}

// scalarizer mirrors the search engine's resolution of the shared
// objective (search.Config.Objective, else the SA mode's default).
func scalarizer(cfg *search.Config) objective.Scalarizer {
	switch {
	case cfg.Objective != nil:
		return *cfg.Objective
	case cfg.SA.ExploreArch:
		return objective.ArchExplore(cfg.SA.Deadline, cfg.SA.PenaltyWeight)
	default:
		return objective.FixedArch()
	}
}

// prepare instantiates a scenario and builds its factory the way dsebench
// (strategy, batch) or dsed (SAIters override) configures it.
func prepare(t target, strategy string, batch, maxStepsCap int) (*prepared, error) {
	sc, ok := scenario.Lookup(t.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", t.Scenario)
	}
	app, arch, err := sc.Instantiate()
	if err != nil {
		return nil, err
	}
	cfg := sc.SearchConfig()
	cfg.FrontMetrics = frontMetrics
	if batch > 1 {
		// One goroutine scores each batch: results are bit-identical for
		// any worker count, and on a shared two-core host handing
		// candidates between goroutines doubles a paper-fig2 run's time
		// and its run-to-run spread.
		cfg.SA.Batch = batch
		cfg.SA.BatchWorkers = 1
	}
	if t.SAIters > 0 {
		cfg.SA.MaxIters = t.SAIters
	}
	f, err := search.NewFactory(strategy, app, arch, cfg)
	if err != nil {
		return nil, err
	}
	p := &prepared{target: t, app: app, arch: arch, cfg: cfg, scal: scalarizer(&cfg), factory: f, maxSteps: sc.Budget.MaxSteps}
	if maxStepsCap > 0 && (p.maxSteps == 0 || p.maxSteps > maxStepsCap) {
		p.maxSteps = maxStepsCap
	}
	return p, nil
}

// setupSearch prepares every scenario of a search workload; it is the
// set-up setup_s times.
func setupSearch(w *searchWorkload, opt options) ([]*prepared, error) {
	ps := make([]*prepared, len(w.Scenarios))
	for i, t := range w.Scenarios {
		p, err := prepare(t, w.Strategy, w.Batch, opt.maxSteps)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// timedSetup repeats set-up reps times and returns the last result with
// the median set-up time in seconds.
func timedSetup[T any](reps int, fn func() (T, error)) (T, float64, error) {
	var out T
	var times []float64
	for i := 0; i < max(reps, 1); i++ {
		start := time.Now()
		v, err := fn()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return out, median(times), nil
}

// runRecord is one search run as the user sees it.
type runRecord struct {
	scenario   string
	k          int // the run's index among its scenario's runs
	wall       time.Duration
	ttTarget   time.Duration // <0: the target was never reached
	costAtWall float64
	best       float64
	stats      search.Stats
	steps      []time.Duration
	out        *search.Outcome
}

// drive runs one seeded search the way search.RunStats does (Init, Step
// until exhausted or the step budget is spent, Best), probing
// Stats().BestCost after every step for time-to-target and for the cost
// when wall, the scenario's wall budget in this host's time, elapses.
// Under a tracer each step is a search.step span.
func drive(p *prepared, seed int64, wall time.Duration, tr *tracer, parent int) (*runRecord, error) {
	rs := tr.begin("run", parent, 0)
	defer tr.end(rs)
	trace := tr.traceOf(rs)
	start := time.Now()
	s, err := p.factory.New()
	if err != nil {
		return nil, err
	}
	if err := s.Init(seed); err != nil {
		return nil, err
	}
	rec := &runRecord{scenario: p.target.Scenario, ttTarget: -1, costAtWall: math.Inf(1)}
	for step := 0; p.maxSteps == 0 || step < p.maxSteps; step++ {
		sp := tr.begin("search.step", rs, trace)
		t0 := time.Now()
		more, err := s.Step()
		rec.steps = append(rec.steps, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		bc := s.Stats().BestCost
		if rec.ttTarget < 0 && bc <= p.target.Cost {
			rec.ttTarget = el
		}
		if el <= wall {
			rec.costAtWall = bc
		}
		if !more {
			break
		}
	}
	rec.out = s.Best()
	rec.stats = s.Stats()
	rec.wall = time.Since(start)
	if rec.out == nil {
		return nil, fmt.Errorf("%s seed %d: no feasible solution", p.target.Scenario, seed)
	}
	rec.best = rec.out.Cost
	if rec.wall <= wall {
		rec.costAtWall = rec.best
	}
	return rec, nil
}

// checkOutcome re-evaluates a run's best mapping on the full reference
// evaluator: it must reproduce the reported makespan, evaluation and cost,
// and the cost must be the best cost the run's telemetry reports.
func checkOutcome(p *prepared, out *search.Outcome, st search.Stats) error {
	if err := sched.CheckMapping(p.app, p.arch, out.Best); err != nil {
		return fmt.Errorf("%s: invalid best mapping: %w", p.target.Scenario, err)
	}
	res, err := p.ref.Evaluate(out.Best)
	if err != nil {
		return fmt.Errorf("%s: reference evaluation: %w", p.target.Scenario, err)
	}
	if res != out.Eval {
		return fmt.Errorf("%s: reported evaluation %+v, reference %+v", p.target.Scenario, out.Eval, res)
	}
	cost := p.scal.CostOf(p.app, p.arch, out.Best, res)
	if !near(cost, out.Cost) || !near(cost, st.BestCost) {
		return fmt.Errorf("%s: reported cost %v (stats %v), reference %v", p.target.Scenario, out.Cost, st.BestCost, cost)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// runSeeds runs seeded runs back to back until the window has elapsed and
// every scenario has had minRuns runs. The next run is always of the
// scenario with the least product of runs and run time so far, which gives
// each scenario runs in proportion to one over the square root of its run
// length: when the scenarios' runs spread alike, that minimises the noise
// of the geometric mean of their medians for a given window. Each run is
// checked and followed by samplesPerRun kernel timings. It returns the
// passing records in run order and the number of runs attempted per
// scenario; the k-th run of a scenario has seed seeds(k).
func runSeeds(ps []*prepared, seeds func(k int) int64, minRuns int, window time.Duration, opt options, hs *hostSpeed, tl *tally) ([]*runRecord, []int) {
	var recs []*runRecord
	runs := make([]int, len(ps))
	spent := make([]time.Duration, len(ps))
	start := time.Now()
	for {
		over := time.Since(start) >= window
		i := -1
		for j := range ps {
			if over && runs[j] >= minRuns {
				continue
			}
			if i < 0 || float64(runs[j])*spent[j].Seconds() < float64(runs[i])*spent[i].Seconds() {
				i = j
			}
		}
		if i < 0 {
			return recs, runs
		}
		p := ps[i]
		wall := time.Duration(float64(p.target.Wall) / hs.scale())
		t0 := time.Now()
		if rec := runChecked(p, seeds(runs[i]), wall, opt, nil, 0, tl); rec != nil {
			rec.k = runs[i]
			recs = append(recs, rec)
		}
		spent[i] += time.Since(t0)
		runs[i]++
		hs.sample(samplesPerRun)
	}
}

// runChecked drives one run and checks its output; nil means the run
// failed and was counted.
func runChecked(p *prepared, seed int64, wall time.Duration, opt options, tr *tracer, parent int, tl *tally) *runRecord {
	tl.attempted++
	rec, err := drive(p, seed, wall, tr, parent)
	if !tl.check(err) {
		return nil
	}
	if opt.corrupt != nil {
		opt.corrupt(rec.out)
	}
	if !tl.check(checkOutcome(p, rec.out, rec.stats)) {
		return nil
	}
	return rec
}

// seedStream draws the run seeds of a workload seed: the k-th run of
// every scenario has seed k of the stream.
func seedStream(seed int64) func(k int) int64 {
	rng := rand.New(rand.NewSource(seed))
	var drawn []int64
	return func(k int) int64 {
		for len(drawn) <= k {
			drawn = append(drawn, rng.Int63n(1<<31))
		}
		return drawn[k]
	}
}

func scenarioNames(ts []target) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Scenario
	}
	return out
}

// runSearch is the untraced run of a search workload: the end-to-end
// metrics.
func runSearch(ctx context.Context, w *workload, opt options) (*report, error) {
	sw := w.search
	r := newReport()
	ps, setupS, err := timedSetup(opt.setupReps, func() ([]*prepared, error) { return setupSearch(sw, opt) })
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p.ref = sched.NewEvaluator(p.app, p.arch)
	}
	var hs hostSpeed
	hs.sample(calibrationSamples)
	start, spent := time.Now(), hs.spent
	recs, _ := runSeeds(ps, seedStream(opt.seed), sw.QualityRuns, opt.seconds, opt, &hs, &r.tally)
	busy := time.Since(start) - (hs.spent - spent)

	groups := scenarioNames(sw.Scenarios)
	tt, wall, atWall, best := samples{}, samples{}, samples{}, samples{}
	misses := 0
	for _, rec := range recs {
		wall.add(rec.scenario, rec.wall.Seconds())
		atWall.add(rec.scenario, rec.costAtWall)
		if rec.ttTarget >= 0 {
			tt.add(rec.scenario, rec.ttTarget.Seconds())
		} else {
			tt.add(rec.scenario, math.Inf(1))
			misses++
		}
		if rec.k < sw.QualityRuns {
			best.add(rec.scenario, rec.best)
		}
	}
	r.metrics.set("tt_target_s", tt.medianGeo(groups), "s")
	r.metrics.set("run_wall_s", wall.medianGeo(groups), "s")
	r.metrics.set("cost_at_wall", atWall.medianGeo(groups), "cost")
	r.metrics.set("best_cost", best.medianGeo(groups), "cost")
	// A run is the search workloads' job. Runs of different scenarios
	// differ in length by up to 10x, so the job median is taken per
	// scenario and folded like every other search metric (job_p50_ms is
	// therefore run_wall_s in milliseconds), and the tail over runs
	// relative to their scenario's median. A window holds tens to hundreds
	// of runs, too few for a 99th percentile, so job_p99_ms is the highest
	// percentile with ten runs beyond it (see tailGeo).
	r.metrics.set("job_p50_ms", 1e3*wall.medianGeo(groups), "ms")
	r.metrics.set("job_p99_ms", 1e3*wall.tailGeo(groups), "ms")
	r.metrics.set("jobs_per_s", float64(len(recs))/busy.Seconds(), "1/s")
	r.extra.set("target_miss_ratio", ratio(float64(misses), float64(len(recs))), "ratio")
	r.extra.set("samples.runs", float64(len(recs)), "count")
	r.extra.set("samples.tt_target", float64(tt.count(groups)), "count")
	r.extra.set("samples.best_cost", float64(best.count(groups)), "count")
	return r, finishCommon(r, &hs, setupS)
}

// finishCommon adds the metrics every untraced run reports last and
// scales the report to reference-host speed.
func finishCommon(r *report, hs *hostSpeed, setupS float64) error {
	r.extra.set("fail_ratio", ratio(float64(r.tally.failed), float64(r.tally.attempted)), "ratio")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	// Peak RSS is printed, not gated: on bandit-medium it is set by when a
	// GC cycle meets a GA generation's garbage, and ten seeds spread it by
	// 0.19-0.36 of its median, beyond any bound the benchmark may set.
	r.extra.set("peak_rss_mb", rss, "MB")
	r.metrics.set("setup_s", setupS, "s")
	hs.normalize(r)
	return nil
}

// traceSearch is the traced run of a search workload: the same runs
// untraced and then traced (the difference is the tracing overhead), then
// the ladder of isolated layer probes on the workload's instances.
func traceSearch(ctx context.Context, w *workload, opt options) (*report, error) {
	sw := w.search
	r := newReport()
	ps, err := setupSearch(sw, opt)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p.ref = sched.NewEvaluator(p.app, p.arch)
	}
	var hs hostSpeed
	hs.sample(calibrationSamples)
	seeds := seedStream(opt.seed)
	untraced, runs := runSeeds(ps, seeds, 1, opt.seconds/4, opt, &hs, &r.tally)

	tr := newTracer()
	root := tr.begin("workload", 0, 0)
	var traced []*runRecord
	for i, p := range ps {
		sp := tr.begin("scenario", root, 0)
		for k := 0; k < runs[i]; k++ {
			if rec := runChecked(p, seeds(k), p.target.Wall, opt, tr, sp, &r.tally); rec != nil {
				traced = append(traced, rec)
			}
			hs.sample(samplesPerRun)
		}
		tr.end(sp)
	}
	searchLayer(r.metrics, traced, sw.Strategy)
	r.metrics.set("trace.overhead_pct", overheadPct(untraced, traced), "%")

	var lad ladder
	for _, p := range ps {
		lad.probe(p, seeds, opt.seconds/(2*time.Duration(len(ps))), tr, root, &r.tally)
	}
	tr.end(root)
	lad.report(r.metrics)
	zeroServeLayers(r.metrics)
	tr.selfShares(r.metrics)
	hs.normalize(r)
	if err := tr.write(opt.traceDir, w.Name, opt.seed); err != nil {
		return nil, err
	}
	return r, nil
}

// overheadPct compares the summed run wall of the same runs traced and
// untraced.
func overheadPct(untraced, traced []*runRecord) float64 {
	var a, b time.Duration
	for _, rec := range untraced {
		a += rec.wall
	}
	for _, rec := range traced {
		b += rec.wall
	}
	return 100 * (b.Seconds() - a.Seconds()) / a.Seconds()
}

// searchLayer derives the search-driver metrics from traced runs.
func searchLayer(m metrics, recs []*runRecord, strategy string) {
	var steps []float64
	var evals, discarded, wall float64
	var lanes, rounds, relax, sweep float64
	arms := map[string]float64{}
	for _, rec := range recs {
		for _, d := range rec.steps {
			steps = append(steps, us(d))
		}
		st := rec.stats
		evals += float64(st.Evaluations)
		discarded += float64(st.Discarded)
		wall += rec.wall.Seconds()
		lanes += float64(st.LaneStats.Lanes)
		rounds += float64(st.LaneStats.Rounds)
		relax += float64(st.LaneStats.LaneRelax)
		sweep += float64(st.LaneStats.SweepNodes)
		if st.Sched != nil {
			for _, a := range st.Sched.Arms {
				arms[a.Name] += float64(a.Steps)
			}
		} else {
			arms[strategy] += float64(st.Steps)
		}
	}
	var armTotal float64
	for _, v := range arms {
		armTotal += v
	}
	m.set("search.step_us", median(steps), "us")
	m.set("search.evals_per_s", ratio(evals, wall), "1/s")
	m.set("search.useful_ratio", 1-ratio(discarded, evals), "ratio")
	for _, a := range []string{"sa", "ga", "list"} {
		m.set("search.arm_steps."+a, ratio(arms[a], armTotal), "share")
	}
	m.set("sched.lane_occupancy", ratio(lanes, rounds), "lanes/round")
	m.set("sched.lane_share", ratio(relax, sweep), "ratio")
}

// zeroServeLayers sets the layers only serve-mix enters to 0, so every
// traced run reports the same metric names.
func zeroServeLayers(m metrics) {
	m.set("runner.run_ms.cold", 0, "ms")
	m.set("runner.run_ms.warm", 0, "ms")
	m.set("memo.hit_ratio", 0, "ratio")
	m.set("memo.evictions", 0, "count")
	m.set("memo.shared", 0, "count")
	m.set("serve.overhead_ms", 0, "ms")
}
