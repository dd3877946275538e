package main

import (
	"context"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/search"
)

// ladder collects the isolated layer probes of a traced run: each rung is
// timed by calling its public functions directly on the workload's own
// instances, and every probed result is checked against a reference.
type ladder struct {
	coreStep, propose, apply, revert []float64
	fullEval, incUpdate, flush       []float64
	cacheHit, instantiate, factory   []float64
	accepted, proposed               float64
}

// probeOps is how many operations each micro-probe times per scenario.
const probeOps = 2000

// probe runs every rung on one scenario: core replays of SA runs for up to
// budget (at least one), then the sched, graph, core move, runner and
// set-up probes on the replays' trajectories.
func (l *ladder) probe(p *prepared, seeds func(int) int64, budget time.Duration, tr *tracer, parent int, tl *tally) {
	sp := tr.begin("scenario", parent, 0)
	defer tr.end(sp)
	prep, err := core.Prepare(p.app, p.arch)
	if !tl.check(err) {
		return
	}
	start := time.Now()
	var traj []*sched.Mapping
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		tl.attempted++
		t, err := l.coreReplay(p, prep, seeds(round), tr, sp)
		if !tl.check(err) {
			return
		}
		traj = append(traj, t...)
	}
	rng := rand.New(rand.NewSource(seeds(0)))
	l.schedProbe(p, traj, tl)
	l.moveProbe(p, prep, seeds(0), rng, tl)
	l.flushProbe(p, rng, tl)
	l.cacheProbe(p, seeds(0), tl)
	l.setupProbe(p, tl)
}

// saConfig is the annealer configuration a search factory hands its SA
// runs for this scenario.
func (p *prepared) saConfig(seed int64) core.Config {
	cfg := p.cfg.SA
	scal := p.scal
	cfg.Objective = &scal
	cfg.FrontMetrics = p.cfg.FrontMetrics
	cfg.Seed = seed
	return cfg
}

// coreReplay runs one SA run straight on core.Explorer, stepping 64
// iterations at a time as the search driver does, and returns the current
// mapping after every step.
func (l *ladder) coreReplay(p *prepared, prep *core.Prepared, seed int64, tr *tracer, parent int) ([]*sched.Mapping, error) {
	rs := tr.begin("run", parent, 0)
	defer tr.end(rs)
	trace := tr.traceOf(rs)
	e, err := prep.New(p.saConfig(seed))
	if err != nil {
		return nil, err
	}
	e.Start()
	chunk := p.cfg.SAChunk
	if chunk <= 0 {
		chunk = 64
	}
	var traj []*sched.Mapping
	for step := 0; p.maxSteps == 0 || step < p.maxSteps; step++ {
		sp := tr.begin("core.step", rs, trace)
		t0 := time.Now()
		more, err := e.Step(chunk)
		l.coreStep = append(l.coreStep, us(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		m, _ := e.Current()
		traj = append(traj, m.Clone())
		if !more {
			break
		}
	}
	ms := e.MoveStatsSnapshot()
	for k := range ms.Proposed {
		l.proposed += float64(ms.Proposed[k])
		l.accepted += float64(ms.Accepted[k])
	}
	return traj, nil
}

// schedProbe evaluates the trajectory on the full reference evaluator and
// replays it through IncEvaluator.Update with change sets diffed from
// consecutive mappings; each incremental result must equal the full one.
func (l *ladder) schedProbe(p *prepared, traj []*sched.Mapping, tl *tally) {
	inc, err := sched.NewIncEvaluator(p.app, p.arch)
	if !tl.check(err) {
		return
	}
	cs := sched.NewChangeSet(p.app.N(), len(p.arch.Processors), len(p.arch.RCs))
	for i, m := range traj {
		tl.attempted++
		t0 := time.Now()
		want, err := p.ref.Evaluate(m)
		l.fullEval = append(l.fullEval, us(time.Since(t0)))
		if !tl.check(err) {
			return
		}
		var got sched.Result
		if i == 0 {
			got, err = inc.Install(m)
		} else {
			cs.Reset()
			markDiff(cs, traj[i-1], m)
			t0 = time.Now()
			got, err = inc.Update(m, cs)
			l.incUpdate = append(l.incUpdate, us(time.Since(t0)))
		}
		if !tl.check(err) {
			return
		}
		if got != want {
			tl.fail("%s: incremental evaluation %+v, full %+v", p.target.Scenario, got, want)
			return
		}
	}
}

// markDiff marks every layer in which b differs from a: tasks whose
// placement or implementation changed, the resources they left and
// joined, and every processor order and RC context list that differs.
func markDiff(cs *sched.ChangeSet, a, b *sched.Mapping) {
	mark := func(pl sched.Placement) {
		switch pl.Kind {
		case model.KindProcessor:
			cs.AddProc(pl.Res)
		case model.KindRC:
			cs.AddRC(pl.Res)
		}
	}
	for t := range b.Assign {
		if a.Assign[t] != b.Assign[t] || a.Impl[t] != b.Impl[t] {
			cs.AddTask(t)
			mark(a.Assign[t])
			mark(b.Assign[t])
		}
	}
	for p := range b.SWOrders {
		if !reflect.DeepEqual(a.SWOrders[p], b.SWOrders[p]) {
			cs.AddProc(p)
		}
	}
	for r := range b.Contexts {
		if !reflect.DeepEqual(a.Contexts[r], b.Contexts[r]) {
			cs.AddRC(r)
		}
	}
}

// moveProbe drives the explorer as an anneal.Problem: from a state a few
// steps into a serial run, propose a move, apply it and revert it; the
// revert must restore the cost.
func (l *ladder) moveProbe(p *prepared, prep *core.Prepared, seed int64, rng *rand.Rand, tl *tally) {
	cfg := p.saConfig(seed)
	cfg.Batch = 1
	e, err := prep.New(cfg)
	if !tl.check(err) {
		return
	}
	e.Start()
	if _, err := e.Step(8 * 64); !tl.check(err) {
		return
	}
	for i := 0; i < probeOps; i++ {
		before := e.Cost()
		t0 := time.Now()
		mv := e.Propose(rng)
		l.propose = append(l.propose, us(time.Since(t0)))
		if mv == nil {
			continue
		}
		t0 = time.Now()
		ok := mv.Apply()
		l.apply = append(l.apply, us(time.Since(t0)))
		if !ok {
			continue
		}
		t0 = time.Now()
		mv.Revert()
		l.revert = append(l.revert, us(time.Since(t0)))
		tl.attempted++
		if e.Cost() != before {
			tl.fail("%s: revert left cost %v, want %v", p.target.Scenario, e.Cost(), before)
			return
		}
	}
}

// flushProbe times graph.Evaluator.Flush on the scenario's precedence DAG
// under a stream of duration changes and acyclic edge insertions and
// removals; every flush must match a from-scratch longest path.
func (l *ladder) flushProbe(p *prepared, rng *rand.Rand, tl *tally) {
	g := p.app.Precedence()
	n := g.N()
	base := make([]int64, n)
	for i, t := range p.app.Tasks {
		base[i] = int64(t.SW) + 1
	}
	dur := append([]int64(nil), base...)
	ev, err := graph.NewEvaluator(g, append([]int64(nil), base...))
	if !tl.check(err) {
		return
	}
	order, err := graph.Topo(g)
	if !tl.check(err) {
		return
	}
	var added [][2]int
	for i := 0; i < probeOps; i++ {
		v := rng.Intn(n)
		dur[v] = base[v]/2 + rng.Int63n(base[v]+1)
		ev.SetDur(v, dur[v])
		// An edge from an earlier to a later node of one topological order
		// never closes a cycle.
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		if a != b && !ev.Graph().HasEdge(order[a], order[b]) {
			if !tl.check(ev.AddEdge(order[a], order[b], rng.Int63n(base[order[a]]+1))) {
				return
			}
			added = append(added, [2]int{order[a], order[b]})
		}
		if len(added) > 8 {
			ev.RemoveEdge(added[0][0], added[0][1])
			added = added[1:]
		}
		t0 := time.Now()
		got := ev.Flush()
		l.flush = append(l.flush, us(time.Since(t0)))
		tl.attempted++
		_, want, err := graph.Longest(ev.Graph(), dur)
		if !tl.check(err) {
			return
		}
		if got != want {
			tl.fail("%s: flush makespan %d, longest path %d", p.target.Scenario, got, want)
			return
		}
	}
}

// cacheProbe times a runner.WithCache RunFunc answering a warm key (the
// cold compute runs a short budget); every hit must be marked cached and
// equal the cold outcome.
func (l *ladder) cacheProbe(p *prepared, seed int64, tl *tally) {
	rc := runner.NewResultCache(16, 0)
	fn, err := runner.WithCache(runner.CacheConfig{Cache: rc, Factory: p.factory, MaxSteps: 4})
	if !tl.check(err) {
		return
	}
	ctx := context.Background()
	cold, err := fn(ctx, 0, seed)
	if !tl.check(err) {
		return
	}
	for i := 0; i < probeOps; i++ {
		tl.attempted++
		t0 := time.Now()
		hit, err := fn(ctx, 0, seed)
		l.cacheHit = append(l.cacheHit, us(time.Since(t0)))
		if !tl.check(err) {
			return
		}
		if !hit.FromCache || hit.Cost != cold.Cost || hit.Eval != cold.Eval {
			tl.fail("%s: cache hit %v/%v differs from cold %v", p.target.Scenario, hit.FromCache, hit.Cost, cold.Cost)
			return
		}
	}
}

// setupProbe times the per-request spec resolution dsed pays on every job,
// hits included: scenario instantiation and factory construction.
func (l *ladder) setupProbe(p *prepared, tl *tally) {
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		sc, ok := scenario.Lookup(p.target.Scenario)
		if !ok {
			tl.fail("unknown scenario %q", p.target.Scenario)
			return
		}
		app, arch, err := sc.Instantiate()
		l.instantiate = append(l.instantiate, us(time.Since(t0)))
		if !tl.check(err) {
			return
		}
		t0 = time.Now()
		_, err = search.NewFactory(p.factory.Name(), app, arch, p.cfg)
		l.factory = append(l.factory, us(time.Since(t0)))
		if !tl.check(err) {
			return
		}
		if app.Digest() != p.app.Digest() {
			tl.fail("%s: instantiation is not deterministic", p.target.Scenario)
			return
		}
	}
}

func (l *ladder) report(m metrics) {
	m.set("core.step_us", median(l.coreStep), "us")
	m.set("core.propose_us", median(l.propose), "us")
	m.set("core.apply_us", median(l.apply), "us")
	m.set("core.revert_us", median(l.revert), "us")
	m.set("core.accept_ratio", ratio(l.accepted, l.proposed), "ratio")
	m.set("sched.full_eval_us", median(l.fullEval), "us")
	m.set("sched.inc_update_us", median(l.incUpdate), "us")
	m.set("graph.flush_us", median(l.flush), "us")
	m.set("runner.cache_hit_us", median(l.cacheHit), "us")
	m.set("scenario.instantiate_us", median(l.instantiate), "us")
	m.set("search.factory_us", median(l.factory), "us")
}
