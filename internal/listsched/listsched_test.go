package listsched

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/sched"
)

func motion() (*model.App, *model.Arch) {
	cfg := apps.DefaultMotionConfig()
	return apps.MotionDetection(cfg), apps.MotionArch(2000, cfg)
}

func TestRanksMonotoneAlongEdges(t *testing.T) {
	app, _ := motion()
	rank := Ranks(app)
	for _, f := range app.Flows {
		if rank[f.From] <= rank[f.To] {
			t.Fatalf("rank not decreasing along edge %d->%d: %v vs %v", f.From, f.To, rank[f.From], rank[f.To])
		}
	}
	// The source's rank equals the longest SW chain through the graph.
	if rank[0] <= 0 {
		t.Fatal("source rank must be positive")
	}
}

func TestBuildAllSoftware(t *testing.T) {
	app, arch := motion()
	hw := make([]bool, app.N())
	m, err := NewDecoder(app, arch).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, m); err != nil {
		t.Fatal(err)
	}
	res, err := sched.NewEvaluator(app, arch).Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// All software on one processor: the paper's 76.4 ms reference.
	if res.Makespan != model.FromMillis(76.4) {
		t.Fatalf("all-SW makespan = %v, want 76.4ms", res.Makespan)
	}
}

func TestBuildAllHardwarePacksContexts(t *testing.T) {
	app, arch := motion()
	hw := make([]bool, app.N())
	for i := range hw {
		hw[i] = true
	}
	m, err := NewDecoder(app, arch).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, m); err != nil {
		t.Fatal(err)
	}
	if m.TotalContexts() < 2 {
		t.Fatalf("28 tasks at smallest impls cannot fit one 2000-CLB context; got %d contexts", m.TotalContexts())
	}
	if _, err := sched.NewEvaluator(app, arch).Evaluate(m); err != nil {
		t.Fatalf("list-scheduled mapping must be acyclic: %v", err)
	}
}

func TestBuildRespectsCapability(t *testing.T) {
	app, arch := motion()
	app.Tasks[0].HW = nil // task 0 becomes software-only
	app.Tasks[1].SW = 0   // task 1 becomes hardware-only
	hw := make([]bool, app.N())
	hw[0] = true  // request impossible hardware
	hw[1] = false // request impossible software
	m, err := NewDecoder(app, arch).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Assign[0].Kind != model.KindProcessor {
		t.Fatal("software-only task placed in hardware")
	}
	if m.Assign[1].Kind != model.KindRC {
		t.Fatal("hardware-only task placed in software")
	}
}

func TestBuildClampsImplGene(t *testing.T) {
	app, arch := motion()
	hw := make([]bool, app.N())
	hw[5] = true
	impl := make([]int, app.N())
	impl[5] = 99 // out of range: clamp to smallest
	m, err := NewDecoder(app, arch).Build(hw, impl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, m); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOversizedDeviceFallsBack(t *testing.T) {
	app, _ := motion()
	tiny := apps.MotionArch(50, apps.DefaultMotionConfig()) // nothing fits
	hw := make([]bool, app.N())
	for i := range hw {
		hw[i] = true
	}
	m, err := NewDecoder(app, tiny).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for t2, pl := range m.Assign {
		if pl.Kind != model.KindProcessor {
			t.Fatalf("task %d placed on 50-CLB device", t2)
		}
	}
}

// TestBuildErrors: every per-call check fails Build and BuildInto alike,
// and a reused mapping decodes correctly again after a failed call.
func TestBuildErrors(t *testing.T) {
	app, arch := motion()
	app.Tasks[3].SW = 0 // hardware-only
	noProc := &model.Arch{RCs: arch.RCs, Bus: arch.Bus}
	noRC := &model.Arch{Processors: arch.Processors, Bus: arch.Bus}
	tiny := apps.MotionArch(50, apps.DefaultMotionConfig()) // nothing fits
	for _, c := range []struct {
		name string
		arch *model.Arch
		hw   []bool
	}{
		{"wrong-size assignment", arch, make([]bool, 3)},
		{"processor-less architecture", noProc, make([]bool, app.N())},
		{"hardware-only task without RC", noRC, make([]bool, app.N())},
		{"task fitting neither side", tiny, make([]bool, app.N())},
	} {
		dec := NewDecoder(app, c.arch)
		if _, err := dec.Build(c.hw, nil); err == nil {
			t.Fatalf("%s accepted by Build", c.name)
		}
		if err := dec.BuildInto(&sched.Mapping{}, c.hw, nil); err == nil {
			t.Fatalf("%s accepted by BuildInto", c.name)
		}
	}

	dec := NewDecoder(app, arch)
	m := &sched.Mapping{}
	hw := make([]bool, app.N())
	for i := range hw {
		hw[i] = true
	}
	if err := dec.BuildInto(m, hw, nil); err != nil {
		t.Fatal(err)
	}
	if err := dec.BuildInto(m, make([]bool, 5), nil); err == nil {
		t.Fatal("wrong-size assignment accepted")
	}
	hw[0], hw[7] = false, false
	if err := dec.BuildInto(m, hw, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := dec.Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := mappingDiff(m, fresh); d != "" {
		t.Fatalf("decode after a failed call: %s", d)
	}
}
