package main

import (
	"time"

	"repro/internal/objective"
)

// target is one scenario of a workload with its fixed quality goals: the
// cost tt_target_s waits for and the wall budget cost_at_wall reads the
// best cost at. Targets are set so that nearly every run of the commit
// that introduced the benchmark reaches them; they never move with the
// code under test.
type target struct {
	Scenario string
	Cost     float64
	Wall     time.Duration
	// SAIters overrides the annealing budget (serve-mix jobs only, where it
	// is part of the job spec).
	SAIters int
}

// searchWorkload runs seeded search runs back to back on one goroutine,
// giving each scenario an equal share of the window.
type searchWorkload struct {
	Strategy  string
	Batch     int
	Scenarios []target
	// QualityRuns is the number of leading runs per scenario best_cost is
	// taken over; the benchmark always completes them, so best_cost is a
	// pure function of the seed.
	QualityRuns int
}

// serveWorkload drives an in-process serve.Server on loopback with two
// closed-loop dse.Client callers.
type serveWorkload struct {
	Scenarios []target
	Runs      int // runs per job
	Clients   int
	// NewEvery is the share of requests that submit a spec never seen
	// before; the rest repeat one of the Recent most recent distinct
	// specs.
	NewEvery float64
	Recent   int
	// CacheEntries bounds the result cache in run outcomes (each job
	// caches Runs of them); it is kept below the distinct working set, so
	// every new spec evicts.
	CacheEntries int
	// QualitySpecs is the number of leading distinct specs best_cost is
	// taken over.
	QualitySpecs int
}

type workload struct {
	Name   string
	Why    string
	search *searchWorkload
	serve  *serveWorkload
}

// frontMetrics is the area/makespan front every run archives, as in
// dsebench and dsed.
var frontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}

var workloads = []workload{
	{
		Name: "anneal-xl",
		Why:  "serial sa on layered-xl (incremental evaluator): relaxation, incremental evaluation and the explorer step do nearly all the work; cache, scheduler and HTTP none",
		search: &searchWorkload{
			Strategy:    "sa",
			Batch:       1,
			Scenarios:   []target{{Scenario: "layered-xl", Cost: 140, Wall: 200 * time.Millisecond}},
			QualityRuns: 36,
		},
	},
	{
		Name: "anneal-batch",
		Why:  "sa at batch 8: layered-large scored by sched.LaneEval, paper-fig2 (full rebuild) by the shadow explorers; the only workload that speculates and discards",
		search: &searchWorkload{
			Strategy: "sa",
			Batch:    8,
			Scenarios: []target{
				{Scenario: "layered-large", Cost: 64, Wall: 200 * time.Millisecond},
				{Scenario: "paper-fig2", Cost: 45, Wall: 25 * time.Millisecond},
			},
			QualityRuns: 32,
		},
	},
	{
		Name: "bandit-medium",
		Why:  "bandit (UCB over sa/list/ga) on five full-rebuild medium scenarios: scheduler, GA, list seeding and the full sched.Evaluator work; the incremental relax does none",
		search: &searchWorkload{
			Strategy: "bandit",
			Batch:    1,
			Scenarios: []target{
				{Scenario: "paper-fig2", Cost: 34.8, Wall: 200 * time.Millisecond},
				{Scenario: "pipeline-jpeg", Cost: 19.5, Wall: 120 * time.Millisecond},
				{Scenario: "sdf-ratechange-medium", Cost: 10.75, Wall: 130 * time.Millisecond},
				{Scenario: "forkjoin-medium", Cost: 28.3, Wall: 350 * time.Millisecond},
				{Scenario: "reconfig-slow-medium", Cost: 62.4, Wall: 650 * time.Millisecond},
			},
			QualityRuns: 4,
		},
	},
	{
		Name: "serve-mix",
		Why:  "two closed-loop clients POST small sa jobs to dsed on loopback; one in three is a new spec (compute, insert, evict), the rest warm hits: serve, runner and memo work",
		serve: &serveWorkload{
			Scenarios: []target{
				{Scenario: "pipeline-chain-tiny", Cost: 8, Wall: 5 * time.Millisecond, SAIters: 600},
				{Scenario: "forkjoin-tiny", Cost: 4.3, Wall: 5 * time.Millisecond, SAIters: 600},
				{Scenario: "sdf-upsample-tiny", Cost: 4.95, Wall: 5 * time.Millisecond, SAIters: 600},
				{Scenario: "layered-small", Cost: 17.3, Wall: 15 * time.Millisecond, SAIters: 800},
				{Scenario: "pipeline-fft-small", Cost: 0.262, Wall: 12 * time.Millisecond, SAIters: 800},
			},
			Runs:         2,
			Clients:      2,
			NewEvery:     1.0 / 3,
			Recent:       24,
			CacheEntries: 128,
			QualitySpecs: 100,
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
