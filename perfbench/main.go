// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload for a fixed number of seconds on a non-race build, checks
// every output against the reference evaluation path, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}; with -trace 1 the
// metrics are the per-layer ones, measured in a separate traced run.
//
//	perfbench -workload anneal-xl -seed 1 -seconds 25 -trace 0
//
// See README.md beside this file for the workload and metric tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/search"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// options shapes one benchmark invocation.
type options struct {
	seed    int64
	seconds time.Duration
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
	// maxSteps, when positive, caps driver steps per run below the
	// scenario budget (the tests' tiny pass).
	maxSteps int
	// corrupt, when non-nil, damages each search outcome before it is
	// checked (tests prove the checks are not vacuous).
	corrupt func(*search.Outcome)
	// traceDir receives the span dump of a traced run.
	traceDir string
}

// tally counts operations and failed output checks; fail_ratio is
// failed/attempted.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check records an error from an operation or an output check.
func (t *tally) check(err error) bool {
	if err != nil {
		t.fail("%v", err)
		return false
	}
	return true
}

// report is everything one invocation measured: the gated metrics, the
// report-only lines printed above the result, and the tally.
type report struct {
	metrics metrics
	extra   metrics // printed, not part of the result object
	tally   tally
}

func newReport() *report { return &report{metrics: metrics{}, extra: metrics{}} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run executes one workload in the requested mode.
func run(ctx context.Context, w *workload, opt options, traced bool) (*report, error) {
	switch {
	case w.search != nil && traced:
		return traceSearch(ctx, w, opt)
	case w.search != nil:
		return runSearch(ctx, w, opt)
	case traced:
		return traceServe(ctx, w, opt)
	default:
		return runServe(ctx, w, opt)
	}
}

// finish turns a report into the result object: a metric that could not
// be measured (NaN or infinite) is an output failure, never a silent gap.
func finish(r *report) result {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.tally.fail("metric %s was not measured", name)
			r.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	if r.tally.attempted < 1 {
		r.tally.attempted = 1
		r.tally.fail("no operation was attempted")
	}
	return result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   r.metrics,
	}
}

func printLines(w *os.File, ms metrics) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	info, _ := debug.ReadBuildInfo()
	if err := checkBuild(info); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		setupReps: 201,
		traceDir:  filepath.Join(buildDir(), "traces"),
	}
	host, _ := json.Marshal(map[string]interface{}{
		"workload": w.Name, "seed": *seed, "seconds": *seconds, "trace": *trace, "host": stamp(info),
	})
	fmt.Println(string(host))
	r, err := run(context.Background(), w, opt, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := finish(r)
	printLines(os.Stdout, r.extra)
	printLines(os.Stdout, r.metrics)
	for _, why := range r.tally.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", why)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// buildDir is where run.sh keeps build outputs; trace dumps go beside them.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
