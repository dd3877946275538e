package listsched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/scenario/archgen"
	"repro/internal/sched"
)

type instance struct {
	name string
	app  *model.App
	arch *model.Arch
}

// instances returns decoder test pairs: the paper's motion detection on
// its 2000-CLB device and on a 600-CLB one (several contexts), plus
// generated fork-join and layered graphs, the first on two processors.
func instances(tb testing.TB) []instance {
	tb.Helper()
	mcfg := apps.DefaultMotionConfig()
	out := []instance{
		{"motion-2000", apps.MotionDetection(mcfg), apps.MotionArch(2000, mcfg)},
		{"motion-600", apps.MotionDetection(mcfg), apps.MotionArch(600, mcfg)},
	}
	gen := func(family string, seed int64, procs, nclb int) {
		g, ok := apps.Lookup(family)
		if !ok {
			tb.Fatalf("no %s family", family)
		}
		app, err := g.Build(rand.New(rand.NewSource(seed)), apps.Medium)
		if err != nil {
			tb.Fatal(err)
		}
		acfg := archgen.DefaultConfig()
		acfg.Processors, acfg.RCs = procs, 1
		acfg.NCLBMin, acfg.NCLBMax = nclb, nclb
		arch, err := archgen.Generate(rand.New(rand.NewSource(seed^0x5ca1ab1e)), acfg)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, instance{fmt.Sprintf("%s-%d", family, seed), app, arch})
	}
	gen("forkjoin", 203, 2, 1800)
	gen("layered", 303, 1, 2000)
	return out
}

// mappingDiff compares two mappings field by field and describes the first
// difference ("" when equal). Nil and empty slices compare equal: a fresh
// decode leaves unused orders nil where a reused one leaves them empty.
func mappingDiff(a, b *sched.Mapping) string {
	if len(a.Assign) != len(b.Assign) || len(a.Impl) != len(b.Impl) {
		return fmt.Sprintf("sized %d/%d vs %d/%d", len(a.Assign), len(a.Impl), len(b.Assign), len(b.Impl))
	}
	for t := range a.Assign {
		if a.Assign[t] != b.Assign[t] {
			return fmt.Sprintf("Assign[%d] %+v vs %+v", t, a.Assign[t], b.Assign[t])
		}
		if a.Impl[t] != b.Impl[t] {
			return fmt.Sprintf("Impl[%d] %d vs %d", t, a.Impl[t], b.Impl[t])
		}
	}
	if len(a.SWOrders) != len(b.SWOrders) {
		return fmt.Sprintf("%d vs %d software orders", len(a.SWOrders), len(b.SWOrders))
	}
	for p := range a.SWOrders {
		if fmt.Sprint(a.SWOrders[p]) != fmt.Sprint(b.SWOrders[p]) {
			return fmt.Sprintf("SWOrders[%d] %v vs %v", p, a.SWOrders[p], b.SWOrders[p])
		}
	}
	if len(a.Contexts) != len(b.Contexts) {
		return fmt.Sprintf("%d vs %d context lists", len(a.Contexts), len(b.Contexts))
	}
	for r := range a.Contexts {
		if len(a.Contexts[r]) != len(b.Contexts[r]) {
			return fmt.Sprintf("RC %d: %d vs %d contexts", r, len(a.Contexts[r]), len(b.Contexts[r]))
		}
		for ci := range a.Contexts[r] {
			if fmt.Sprint(a.Contexts[r][ci].Tasks) != fmt.Sprint(b.Contexts[r][ci].Tasks) {
				return fmt.Sprintf("RC %d context %d: %v vs %v", r, ci, a.Contexts[r][ci].Tasks, b.Contexts[r][ci].Tasks)
			}
		}
	}
	return ""
}

// randomAssignment draws a hardware request per task at the given density
// and an implementation gene per task, out-of-range genes included (the
// decoder clamps them). One draw in four passes nil implementations.
func randomAssignment(rng *rand.Rand, app *model.App, density float64) ([]bool, []int) {
	hw := make([]bool, app.N())
	impl := make([]int, app.N())
	for t := range hw {
		hw[t] = rng.Float64() < density
		impl[t] = rng.Intn(len(app.Tasks[t].HW)+2) - 1
	}
	if rng.Intn(4) == 0 {
		impl = nil
	}
	return hw, impl
}

// TestBuildIntoMatchesFreshBuild decodes random assignment streams into
// one reused mapping and compares every result with a fresh Build and
// with the per-call reference decode (legacyBuild). The
// hardware density jumps between draws, so the streams flip tasks from
// hardware to software and shrink and grow the context count; the test
// checks that both happened.
func TestBuildIntoMatchesFreshBuild(t *testing.T) {
	densities := []float64{1, 0.1, 0.9, 0, 0.6, 1, 0.3, 0.8}
	for _, in := range instances(t) {
		rng := rand.New(rand.NewSource(17))
		dec := NewDecoder(in.app, in.arch)
		reused := &sched.Mapping{}
		var flips, shrinks int
		prevCtx := -1
		var prevHW []bool
		for i := 0; i < 400; i++ {
			hw, impl := randomAssignment(rng, in.app, densities[i%len(densities)])
			if err := dec.BuildInto(reused, hw, impl); err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			fresh, err := dec.Build(hw, impl)
			if err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			if d := mappingDiff(reused, fresh); d != "" {
				t.Fatalf("%s draw %d: reused mapping differs from a fresh decode: %s", in.name, i, d)
			}
			legacy, err := legacyBuild(in.app, in.arch, hw, impl)
			if err != nil {
				t.Fatal(err)
			}
			if d := mappingDiff(fresh, legacy); d != "" {
				t.Fatalf("%s draw %d: decoder differs from the per-call reference: %s", in.name, i, d)
			}
			if err := sched.CheckMapping(in.app, in.arch, reused); err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			n := reused.TotalContexts()
			if n < prevCtx {
				shrinks++
			}
			prevCtx = n
			isHW := make([]bool, in.app.N())
			for t2, pl := range reused.Assign {
				isHW[t2] = pl.Kind == model.KindRC
				if prevHW != nil && prevHW[t2] && !isHW[t2] {
					flips++
				}
			}
			prevHW = isHW
		}
		if flips == 0 || shrinks == 0 {
			t.Fatalf("%s: stream exercised %d HW->SW flips and %d context shrinks; need both", in.name, flips, shrinks)
		}
	}
}

// TestDecoderOrderIsRankOrder pins the decode order: upward rank
// descending, task ids ascending among equal ranks.
func TestDecoderOrderIsRankOrder(t *testing.T) {
	for _, in := range instances(t) {
		rank := Ranks(in.app)
		order := NewDecoder(in.app, in.arch).Order()
		if len(order) != in.app.N() {
			t.Fatalf("%s: order covers %d of %d tasks", in.name, len(order), in.app.N())
		}
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			if rank[a] < rank[b] || (rank[a] == rank[b] && a > b) {
				t.Fatalf("%s: order[%d..%d] = %d (rank %v), %d (rank %v)", in.name, i-1, i, a, rank[a], b, rank[b])
			}
		}
	}
}

// TestBuildIntoEvaluateAllocatesNothing: decoding into a warmed-up mapping
// and evaluating it makes no heap allocation.
func TestBuildIntoEvaluateAllocatesNothing(t *testing.T) {
	for _, in := range instances(t) {
		dec := NewDecoder(in.app, in.arch)
		ev := sched.NewEvaluator(in.app, in.arch)
		rng := rand.New(rand.NewSource(5))
		hw, impl := randomAssignment(rng, in.app, 0.7)
		m := &sched.Mapping{}
		if err := dec.BuildInto(m, hw, impl); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Evaluate(m); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := dec.BuildInto(m, hw, impl); err != nil {
				t.Fatal(err)
			}
			if _, err := ev.Evaluate(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: BuildInto+Evaluate allocates %.1f times per call after warm-up", in.name, allocs)
		}
	}
}
