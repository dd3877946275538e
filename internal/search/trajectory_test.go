package search_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/objective"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/search"
)

var updateTrajectories = flag.Bool("update-trajectories", false, "rewrite testdata/trajectories.txt from the current code")

const trajectoryPath = "testdata/trajectories.txt"

// trajectoryRuns are the pinned runs: the decoder-driven arms (ga, list)
// and the bandit that schedules them on three medium scenarios, plus the
// exhaustive sweep on a tiny one, each at a fixed seed and step budget.
var trajectoryRuns = []struct {
	strategy, scenario string
	seed               int64
	maxSteps           int
}{
	{"ga", "paper-fig2", 5, 4},
	{"ga", "forkjoin-medium", 5, 4},
	{"ga", "pipeline-jpeg", 5, 4},
	{"list", "paper-fig2", 0, 80},
	{"list", "forkjoin-medium", 0, 80},
	{"list", "pipeline-jpeg", 0, 80},
	{"bandit", "paper-fig2", 7, 120},
	{"bandit", "forkjoin-medium", 7, 120},
	{"bandit", "pipeline-jpeg", 7, 120},
	{"brute", "pipeline-chain-tiny", 0, 4},
}

// mappingDigest hashes every field of a mapping. %v prints nil and empty
// slices alike, so a reused mapping and a fresh one with the same content
// digest the same.
func mappingDigest(m *sched.Mapping) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(m.Assign, m.Impl, m.SWOrders, m.Contexts)))
	return fmt.Sprintf("%x", sum[:8])
}

func trajectoryLine(t *testing.T, strategy, name string, seed int64, maxSteps int) string {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	app, arch, err := sc.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.SearchConfig()
	cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	f, err := search.NewFactory(strategy, app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := search.RunStats(context.Background(), f, seed, maxSteps)
	if err != nil {
		t.Fatalf("%s/%s: %v", strategy, name, err)
	}
	arms := "-"
	if st.Sched != nil {
		var parts []string
		for _, a := range st.Sched.Arms {
			parts = append(parts, fmt.Sprintf("%s:%d", a.Name, a.Steps))
		}
		arms = strings.Join(parts, ",")
	}
	front := 0
	if out.Front != nil {
		front = out.Front.Len()
	}
	return fmt.Sprintf("%s/%s seed=%d max=%d cost=%016x evals=%d steps=%d arms=%s front=%d best=%s",
		strategy, name, seed, maxSteps, math.Float64bits(out.Cost), st.Evaluations, st.Steps,
		arms, front, mappingDigest(out.Best))
}

// TestTrajectoryGolden pins the search trajectories of the ga, list,
// bandit and brute strategies bit for bit: best cost, evaluation and step
// counts, per-arm steps, front size and a digest of the best mapping.
// Performance work on the decoder and the GA loop must leave every line
// unchanged. An intentional change of trajectory regenerates the file with
//
//	go test ./internal/search -run TrajectoryGolden -update-trajectories
func TestTrajectoryGolden(t *testing.T) {
	var lines []string
	for _, r := range trajectoryRuns {
		lines = append(lines, trajectoryLine(t, r.strategy, r.scenario, r.seed, r.maxSteps))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateTrajectories {
		if err := os.WriteFile(trajectoryPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs)", trajectoryPath, len(lines))
		return
	}
	want, err := os.ReadFile(trajectoryPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden file has %d runs, test has %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("trajectory drifted:\n got %s\nwant %s", lines[i], wantLines[i])
		}
	}
}
