package dse

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/serve"
)

func quiet(string, ...interface{}) {}

// startDsed serves one standalone dsed and returns its base URL.
func startDsed(t *testing.T) string {
	t.Helper()
	srv := serve.New(serve.Options{Cache: runner.NewResultCache(128, 0), Logf: quiet})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// startCoordinator serves a coordinator fronting two workers and returns
// its base URL once both are on the ring.
func startCoordinator(t *testing.T) string {
	t.Helper()
	coord := fleet.NewCoordinator(fleet.Options{
		HeartbeatTimeout: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
		Logf:             quiet,
	})
	t.Cleanup(coord.Close)
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Options{
			Cache: runner.NewResultCache(128, 0), Logf: quiet,
		}).Handler())
		t.Cleanup(ts.Close)
		agent := &fleet.Agent{
			Coordinator: coordTS.URL, ID: fmt.Sprintf("w%d", i), URL: ts.URL,
			Interval: 25 * time.Millisecond, Logf: quiet,
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); agent.Run(ctx) }()
		t.Cleanup(func() { cancel(); <-done })
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(coord.Workers()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 workers registered", len(coord.Workers()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	return coordTS.URL
}

// streamJob reads GET /v1/jobs/{id}/stream: the run events, then the
// final line.
func streamJob(ctx context.Context, base, id string) ([]JobEvent, *finalLine, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("stream answered %s", resp.Status)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"state"`) {
			var final finalLine
			if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
				return nil, nil, err
			}
			return events, &final, nil
		}
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, nil, err
		}
		events = append(events, ev)
	}
	return nil, nil, fmt.Errorf("stream ended without a final line (%v)", sc.Err())
}

// quality flattens the deterministic fields of a job's result: the
// summary's quality fields and every run's event, cache flag excluded.
func quality(sum *JobSummary, events []JobEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%v run=%d seed=%d makespan=%v mean=%v front=%d met=%d evals=%d",
		sum.BestCost, sum.BestRun, sum.BestSeed, sum.BestMakespanMS, sum.MeanMakespanMS,
		sum.FrontSize, sum.DeadlineMet, sum.Evaluations)
	for _, ev := range events {
		ev.Cached = false
		fmt.Fprintf(&b, "\n%+v", ev)
	}
	return b.String()
}

// TestClientTableBothTargets runs one client table against a standalone
// dsed and against a coordinator with workers: every /v1 job route must
// answer the same way on both, and the computed results must be
// bit-identical across the two targets.
func TestClientTableBothTargets(t *testing.T) {
	spec := JobSpec{Scenario: "pipeline-chain-tiny", Strategy: "sa", Runs: 3, MaxSteps: 6, Seed: 5}
	results := map[string][]string{}
	targets := []struct {
		name  string
		start func(*testing.T) string
	}{{"dsed", startDsed}, {"coordinator", startCoordinator}}
	for _, target := range targets {
		t.Run(target.name, func(t *testing.T) {
			base := target.start(t)
			c := NewClient(base)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			record := func(s string) { results[target.name] = append(results[target.name], s) }

			if err := c.Health(ctx); err != nil {
				t.Fatalf("Health: %v", err)
			}

			// Async lifecycle, then the stream replay of the finished job.
			st, err := c.SubmitJob(ctx, spec)
			if err != nil {
				t.Fatalf("SubmitJob: %v", err)
			}
			if st.ID == "" || st.State != JobQueued {
				t.Fatalf("SubmitJob status %+v, want a queued job with an id", st)
			}
			done, err := c.WaitJob(ctx, st.ID, 10*time.Millisecond)
			if err != nil || done.State != JobDone || done.Summary == nil || done.Summary.Completed != spec.Runs {
				t.Fatalf("WaitJob = %+v, %v", done, err)
			}
			if got, err := c.Job(ctx, st.ID); err != nil || got.State != JobDone || got.Events != spec.Runs {
				t.Fatalf("Job = %+v, %v", got, err)
			}
			jobs, err := c.Jobs(ctx)
			if err != nil || len(jobs) != 1 || jobs[0].ID != st.ID {
				t.Fatalf("Jobs = %+v, %v", jobs, err)
			}
			events, final, err := streamJob(ctx, base, st.ID)
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if len(events) != spec.Runs || final.State != JobDone || final.Summary == nil {
				t.Fatalf("stream replayed %d events, final %+v", len(events), final)
			}
			record(quality(done.Summary, events))

			// Synchronous run: events in run order plus the summary; the
			// rerun is served from the cache.
			for pass := 0; pass < 2; pass++ {
				var evs []JobEvent
				sum, err := c.RunJob(ctx, spec, func(ev JobEvent) { evs = append(evs, ev) })
				if err != nil {
					t.Fatalf("RunJob pass %d: %v", pass, err)
				}
				for i, ev := range evs {
					if ev.Run != i {
						t.Fatalf("RunJob pass %d: event %d is run %d", pass, i, ev.Run)
					}
				}
				if len(evs) != spec.Runs || sum.Completed != spec.Runs || sum.CacheHits != spec.Runs {
					t.Fatalf("RunJob pass %d: %d events, summary %+v, want %d cache-served runs", pass, len(evs), sum, spec.Runs)
				}
				record(quality(sum, evs))
			}

			info, err := c.CacheStats(ctx)
			if err != nil || !info.Enabled || info.Hits < uint64(2*spec.Runs) {
				t.Fatalf("CacheStats = %+v, %v; want an enabled cache with the warm hits", info, err)
			}

			// Cancel a running job that cannot finish on its own.
			long, err := c.SubmitJob(ctx, JobSpec{Scenario: "layered-160", Strategy: "sa", Runs: 2, SAIters: 1 << 30})
			if err != nil {
				t.Fatalf("SubmitJob long: %v", err)
			}
			for st := long; st.State != JobRunning; {
				if st, err = c.Job(ctx, long.ID); err != nil {
					t.Fatalf("Job long: %v", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := c.CancelJob(ctx, long.ID); err != nil {
				t.Fatalf("CancelJob: %v", err)
			}
			if got, err := c.WaitJob(ctx, long.ID, 10*time.Millisecond); err != nil || got.State != JobCanceled {
				t.Fatalf("cancelled job = %+v, %v", got, err)
			}

			// The error envelope surfaces code and message.
			if _, err := c.Job(ctx, "job-999999"); err == nil || !strings.Contains(err.Error(), "not_found") {
				t.Fatalf("unknown job error = %v, want not_found", err)
			}
			bad := JobSpec{Scenario: "no-such-scenario"}
			if _, err := c.SubmitJob(ctx, bad); err == nil || !strings.Contains(err.Error(), "bad_request") {
				t.Fatalf("SubmitJob bad spec error = %v, want bad_request", err)
			}
			if _, err := c.RunJob(ctx, bad, nil); err == nil || !strings.Contains(err.Error(), "bad_request") {
				t.Fatalf("RunJob bad spec error = %v, want bad_request", err)
			}
		})
	}
	single, coord := results["dsed"], results["coordinator"]
	if len(single) != len(coord) {
		t.Fatalf("targets recorded %d vs %d results", len(single), len(coord))
	}
	for i := range single {
		if single[i] != coord[i] {
			t.Errorf("result %d differs between targets:\ndsed:        %s\ncoordinator: %s", i, single[i], coord[i])
		}
	}
}
