package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/search"
)

// declared reads the metric names and units BENCHMARK.json declares for
// the untraced (end_to_end) and traced (per_layer) runs.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.Name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny shrinks a workload for a fast pass: every run stops after two
// driver steps, so targets and wall budgets are relaxed to be met.
func tiny(w workload) (*workload, options) {
	relax := func(ts []target) []target {
		out := append([]target(nil), ts...)
		for i := range out {
			out[i].Cost = math.MaxFloat64
			out[i].Wall = time.Hour
		}
		return out
	}
	if w.search != nil {
		sw := *w.search
		sw.Scenarios = relax(sw.Scenarios)
		sw.QualityRuns = 1
		w.search = &sw
	}
	if w.serve != nil {
		sv := *w.serve
		sv.Scenarios = relax(sv.Scenarios)
		sv.QualitySpecs = 40
		w.serve = &sv
	}
	return &w, options{seed: 1, seconds: 300 * time.Millisecond, setupReps: 2, maxSteps: 2}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			tw, opt := tiny(w)
			opt.traceDir = t.TempDir()
			r, err := run(context.Background(), tw, opt, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res := finish(r)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d/%d failed: %v", w.Name, traced, res.Failed, res.Attempted, r.tally.reasons)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", w.Name, traced, name)
				}
			}
			if !traced {
				for _, name := range []string{"fail_ratio", "target_miss_ratio", "peak_rss_mb"} {
					if _, ok := r.extra[name]; !ok {
						t.Errorf("%s: report line %s missing", w.Name, name)
					}
				}
			}
		}
	}
}

func TestCorruptedSearchResultIsCounted(t *testing.T) {
	w, _ := lookupWorkload("anneal-batch")
	tw, opt := tiny(*w)
	opt.corrupt = func(o *search.Outcome) { o.Eval.Makespan++ }
	r, err := run(context.Background(), tw, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	res := finish(r)
	if res.Correct || res.Failed == 0 || r.extra["fail_ratio"].Value <= 0 {
		t.Fatalf("corrupted makespans passed the checks: %+v, fail_ratio %v", res, r.extra["fail_ratio"])
	}
}

func TestCorruptedServedResultIsCounted(t *testing.T) {
	reqs := []served{{spec: 0, digest: [32]byte{1}}, {spec: 1, digest: [32]byte{2}}}
	var tl tally
	checkServed(reqs, map[int]ref{0: {digest: [32]byte{1}}, 1: {digest: [32]byte{3}}}, &tl)
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", tl.attempted, tl.failed)
	}
}
