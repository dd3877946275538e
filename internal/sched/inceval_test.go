package sched

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
)

// incArch is a three-processor, two-RC template. Three processors let a
// test move a task away from a processor and, after a failed attempt, on
// to a different one.
func incArch(contention bool) *model.Arch {
	return &model.Arch{
		Name: "inc",
		Processors: []model.Processor{
			{Name: "p0"},
			{Name: "p1", SpeedFactor: 1.5},
			{Name: "p2", SpeedFactor: 0.8},
		},
		RCs: []model.RC{
			{Name: "rc0", NCLB: 2000, TR: model.FromMicros(22.5)},
			{Name: "rc1", NCLB: 900, TR: model.FromMicros(15)},
		},
		Bus: model.Bus{Rate: 80_000_000, Contention: contention},
	}
}

func incApp(t *testing.T, seed int64) *model.App {
	t.Helper()
	app, err := apps.Layered(rand.New(rand.NewSource(seed)), apps.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// incHarness drives an IncEvaluator the way core does — mutate, mark the
// change set, Update; on a rejected move or ErrOrderCycle restore the
// mapping and keep the change set for the next Update — and checks every
// outcome against a from-scratch Evaluator.
type incHarness struct {
	t     testing.TB
	app   *model.App
	arch  *model.Arch
	m     *Mapping
	prev  *Mapping
	cs    *ChangeSet
	inc   *IncEvaluator
	ref   *Evaluator
	evals int
	fails int
}

func newIncHarness(t testing.TB, app *model.App, arch *model.Arch, rng *rand.Rand) *incHarness {
	t.Helper()
	m, err := RandomMapping(app, arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncEvaluator(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	h := &incHarness{
		t: t, app: app, arch: arch, m: m, prev: m.Clone(),
		cs:  NewChangeSet(app.N(), len(arch.Processors), len(arch.RCs)),
		inc: inc, ref: NewEvaluator(app, arch),
	}
	h.cs.Reset() // stamps start at the zero epoch
	got, err := inc.Install(m)
	if err != nil {
		t.Fatal(err)
	}
	h.check(got)
	return h
}

func (h *incHarness) check(got Result) {
	h.t.Helper()
	want, err := h.ref.Evaluate(h.m)
	if err != nil {
		h.t.Fatalf("eval %d: incremental accepted a mapping the full path rejects: %v", h.evals, err)
	}
	if got != want {
		h.t.Fatalf("eval %d: incremental %+v, full %+v", h.evals, got, want)
	}
	h.evals++
}

// update evaluates the mutated mapping. It reports whether the move was
// feasible; an infeasible move has been rolled back.
func (h *incHarness) update() bool {
	h.t.Helper()
	if err := CheckMapping(h.app, h.arch, h.m); err != nil {
		h.t.Fatalf("eval %d: move broke the mapping: %v", h.evals, err)
	}
	got, err := h.inc.Update(h.m, h.cs)
	if _, werr := h.ref.Evaluate(h.m); (err == nil) != (werr == nil) {
		h.t.Fatalf("eval %d: incremental err %v, full err %v", h.evals, err, werr)
	}
	if err != nil {
		h.fails++
		h.prev.CopyInto(h.m)
		return false
	}
	h.check(got)
	return true
}

// settle ends a feasible move: accepted moves consume the change set,
// rejected ones restore the mapping and leave their layers marked.
func (h *incHarness) settle(accept bool) {
	if accept {
		h.cs.Reset()
		h.m.CopyInto(h.prev)
	} else {
		h.prev.CopyInto(h.m)
	}
}

func insertAt(xs []int, i, x int) []int {
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// migrate moves software task x to processor q at position i.
func (h *incHarness) migrate(x, q, i int) {
	p := h.m.Assign[x].Res
	removeFromOrder(&h.m.SWOrders[p], x)
	h.m.SWOrders[q] = insertAt(h.m.SWOrders[q], i, x)
	h.m.Assign[x] = Placement{Kind: model.KindProcessor, Res: q}
	h.cs.AddTask(x)
	h.cs.AddProc(p)
	h.cs.AddProc(q)
}

// renumber refreshes the context index of every task on RC r.
func (h *incHarness) renumber(r int) {
	for ci, c := range h.m.Contexts[r] {
		for _, x := range c.Tasks {
			h.m.Assign[x].Ctx = ci
		}
	}
}

// randomMove applies one random move to the mapping and marks the change
// set; it returns false when the drawn move does not apply.
func (h *incHarness) randomMove(rng *rand.Rand) bool {
	m, app, arch := h.m, h.app, h.arch
	x := rng.Intn(app.N())
	pl := m.Assign[x]
	switch rng.Intn(5) {
	case 0: // reorder within a processor; may close a cycle
		if pl.Kind != model.KindProcessor || len(m.SWOrders[pl.Res]) < 2 {
			return false
		}
		o := m.SWOrders[pl.Res]
		i := rng.Intn(len(o) - 1)
		j := i + 1 + rng.Intn(min(3, len(o)-1-i))
		o[i], o[j] = o[j], o[i]
		h.cs.AddProc(pl.Res)
	case 1: // migrate to another processor
		if pl.Kind != model.KindProcessor {
			return false
		}
		q := rng.Intn(len(arch.Processors))
		if q == pl.Res {
			return false
		}
		h.migrate(x, q, rng.Intn(len(m.SWOrders[q])+1))
	case 2: // software to an existing or new context
		task := &app.Tasks[x]
		r := rng.Intn(len(arch.RCs))
		if pl.Kind != model.KindProcessor || !task.CanHW() {
			return false
		}
		impl := rng.Intn(len(task.HW))
		need := task.HW[impl].CLBs
		if need > arch.RCs[r].NCLB {
			return false
		}
		removeFromOrder(&m.SWOrders[pl.Res], x)
		ci := rng.Intn(len(m.Contexts[r]) + 1)
		if ci < len(m.Contexts[r]) && m.ContextCLBs(app, r, ci)+need > arch.RCs[r].NCLB {
			ci = len(m.Contexts[r]) // no room: open a new last context
		}
		if ci == len(m.Contexts[r]) {
			m.Contexts[r] = append(m.Contexts[r], Context{})
		}
		m.Contexts[r][ci].Tasks = append(m.Contexts[r][ci].Tasks, x)
		m.Impl[x] = impl
		m.Assign[x] = Placement{Kind: model.KindRC, Res: r, Ctx: ci}
		h.cs.AddTask(x)
		h.cs.AddProc(pl.Res)
		h.cs.AddRC(r)
	case 3: // hardware back to software
		if pl.Kind != model.KindRC || !app.Tasks[x].CanSW() {
			return false
		}
		c := &m.Contexts[pl.Res][pl.Ctx]
		removeFromOrder(&c.Tasks, x)
		if len(c.Tasks) == 0 {
			m.Contexts[pl.Res] = append(m.Contexts[pl.Res][:pl.Ctx], m.Contexts[pl.Res][pl.Ctx+1:]...)
			h.renumber(pl.Res)
		}
		q := rng.Intn(len(arch.Processors))
		m.SWOrders[q] = insertAt(m.SWOrders[q], rng.Intn(len(m.SWOrders[q])+1), x)
		m.Assign[x] = Placement{Kind: model.KindProcessor, Res: q}
		h.cs.AddTask(x)
		h.cs.AddRC(pl.Res)
		h.cs.AddProc(q)
	case 4: // swap two contexts; may close a cycle
		if pl.Kind != model.KindRC || len(m.Contexts[pl.Res]) < 2 {
			return false
		}
		cs := m.Contexts[pl.Res]
		j := rng.Intn(len(cs))
		cs[pl.Ctx], cs[j] = cs[j], cs[pl.Ctx]
		h.renumber(pl.Res)
		h.cs.AddRC(pl.Res)
	}
	return true
}

// TestIncEvaluatorRandomMovesMatchFull replays random move streams, with
// rejected and infeasible moves, through the incremental path and checks
// every Result against the full rebuild, with the bus contended and free.
func TestIncEvaluatorRandomMovesMatchFull(t *testing.T) {
	for _, contention := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := newIncHarness(t, incApp(t, seed), incArch(contention), rng)
			for step := 0; step < 1500; step++ {
				if h.randomMove(rng) && h.update() {
					h.settle(rng.Intn(3) == 0)
				}
			}
			if h.fails == 0 || h.evals < 300 {
				t.Fatalf("contention=%v seed %d: %d evaluations, %d cycles: stream too tame", contention, seed, h.evals, h.fails)
			}
		}
	}
}

// TestIncEvaluatorCycleThenDifferentMove forces ErrOrderCycle in the middle
// of a two-processor patch and follows it with a different move, as core
// does: the mapping is restored, the change set kept, and the next move
// takes the failed task to a third processor. The first processor's patch
// (the task's removal) committed before the failure and is identical in
// the follow-up, so that Update does not re-derive it: the graphs must
// already hold exactly what the stored layer lists claim.
func TestIncEvaluatorCycleThenDifferentMove(t *testing.T) {
	for _, contention := range []bool{true, false} {
		forced := 0
		for seed := int64(1); seed <= 6; seed++ {
			app := incApp(t, seed)
			rng := rand.New(rand.NewSource(seed))
			h := newIncHarness(t, app, incArch(contention), rng)
			for step := 0; step < 400; step++ {
				if h.randomMove(rng) && h.update() {
					h.settle(true)
				}
				if step%20 != 19 {
					continue
				}
				for _, fl := range app.Flows {
					if h.forceCycle(fl.From, fl.To) {
						forced++
						break
					}
				}
			}
		}
		if forced < 20 {
			t.Fatalf("contention=%v: only %d forced cycles", contention, forced)
		}
	}
}

// forceCycle moves software task a to the processor of its software
// successor b, directly after b, which closes a cycle through the flow
// a→b. After the failure it moves a to a third processor at the first
// feasible position instead. It reports whether the sequence applied.
func (h *incHarness) forceCycle(a, b int) bool {
	m := h.m
	pa, pb := m.Assign[a], m.Assign[b]
	if pa.Kind != model.KindProcessor || pb.Kind != model.KindProcessor || pa.Res == pb.Res {
		return false
	}
	if i := indexOf(m.SWOrders[pa.Res], a); i == 0 || i == len(m.SWOrders[pa.Res])-1 {
		return false // the removal must insert a bridging edge
	}
	third := 3 - pa.Res - pb.Res
	h.migrate(a, pb.Res, indexOf(m.SWOrders[pb.Res], b)+1)
	if h.update() {
		h.t.Fatalf("placing task %d after its successor %d was accepted", a, b)
	}
	for i := 0; i <= len(m.SWOrders[third]); i++ {
		h.migrate(a, third, i)
		if _, err := h.ref.Evaluate(m); err == nil {
			if !h.update() {
				h.t.Fatal("incremental path rejected a feasible move")
			}
			h.settle(true)
			return true
		}
		h.prev.CopyInto(m)
	}
	// No feasible slot: resynchronize with the restored mapping.
	if !h.update() {
		h.t.Fatal("incremental path rejected the restored mapping")
	}
	h.settle(true)
	return true
}

func indexOf(xs []int, x int) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}
