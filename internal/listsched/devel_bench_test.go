package listsched

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
)

// Rung 4 of the layer ladder (the search driver), isolated: the decode
// every GA individual, list seed and brute-force bipartition goes through.
// BenchmarkDevelDecode pins the per-pair Decoder against a replica of the
// per-call decode it replaced, which re-derived the rank order — two
// precedence-graph rebuilds, a topological sort and a rank sort — and
// allocated a fresh mapping for every candidate.
//
// go test -run=NONE -benchmem -bench=DevelDecode ./internal/listsched

// legacyTopo replicates the per-call topological sort of the replaced
// decode path.
func legacyTopo(app *model.App) []int {
	g := app.Precedence()
	indeg := make([]int, app.N())
	for v := 0; v < app.N(); v++ {
		indeg[v] = g.InDegree(v)
	}
	var ready []int
	for v := app.N() - 1; v >= 0; v-- {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	var order []int
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, s := range g.Succs(v) {
			indeg[s]--
			if indeg[s] == 0 {
				i := len(ready)
				ready = append(ready, 0)
				for i > 0 && ready[i-1] < s {
					ready[i] = ready[i-1]
					i--
				}
				ready[i] = s
			}
		}
	}
	return order
}

// legacyBuild replicates the per-call decode: ranks, rank order and a
// fresh mapping on every call, and a capacity check that re-sums the open
// context. It is also the reference the decoder's output is checked
// against. The error branches, which no test or benchmark stream takes,
// are left out.
func legacyBuild(app *model.App, arch *model.Arch, hw []bool, impl []int) (*sched.Mapping, error) {
	n := app.N()
	m := &sched.Mapping{
		Assign:   make([]sched.Placement, n),
		Impl:     make([]int, n),
		SWOrders: make([][]int, len(arch.Processors)),
		Contexts: make([][]sched.Context, len(arch.RCs)),
	}
	g := app.Precedence()
	order := legacyTopo(app)
	rank := make([]model.Time, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var best model.Time
		for _, s := range g.Succs(v) {
			if rank[s] > best {
				best = rank[s]
			}
		}
		sw := app.Tasks[v].SW
		if sw <= 0 {
			sw = app.Tasks[v].BestHWTime()
		}
		rank[v] = best + sw
	}
	byRank := make([]int, n)
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(a, b int) bool {
		ra, rb := rank[byRank[a]], rank[byRank[b]]
		if ra != rb {
			return ra > rb
		}
		return byRank[a] < byRank[b]
	})
	for _, t := range byRank {
		task := &app.Tasks[t]
		wantHW := hw[t]
		if !task.CanHW() {
			wantHW = false
		}
		if !task.CanSW() {
			wantHW = true
		}
		if wantHW {
			rc := &arch.RCs[0]
			im := clampImpl(task, impl, t)
			if task.HW[im].CLBs > rc.NCLB {
				im = smallest(task)
			}
			if task.HW[im].CLBs > rc.NCLB {
				wantHW = false
			} else {
				cs := m.Contexts[0]
				if len(cs) == 0 || m.ContextCLBs(app, 0, len(cs)-1)+task.HW[im].CLBs > rc.NCLB {
					m.Contexts[0] = append(m.Contexts[0], sched.Context{})
				}
				ci := len(m.Contexts[0]) - 1
				m.Contexts[0][ci].Tasks = append(m.Contexts[0][ci].Tasks, t)
				m.Assign[t] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: ci}
				m.Impl[t] = im
			}
		}
		if !wantHW {
			m.Assign[t] = sched.Placement{Kind: model.KindProcessor, Res: 0}
			m.SWOrders[0] = append(m.SWOrders[0], t)
		}
	}
	return m, nil
}

var sinkMapping *sched.Mapping

func BenchmarkDevelDecode(b *testing.B) {
	in := instances(b)[0] // motion detection on the 2000-CLB device: paper-fig2
	rng := rand.New(rand.NewSource(1))
	type assignment struct {
		hw   []bool
		impl []int
	}
	stream := make([]assignment, 300) // one GA population
	for i := range stream {
		stream[i].hw, stream[i].impl = randomAssignment(rng, in.app, 0.5)
	}
	dec := NewDecoder(in.app, in.arch)
	reused := &sched.Mapping{}
	for i, a := range stream {
		old, err := legacyBuild(in.app, in.arch, a.hw, a.impl)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.BuildInto(reused, a.hw, a.impl); err != nil {
			b.Fatal(err)
		}
		if d := mappingDiff(old, reused); d != "" {
			b.Fatalf("assignment %d: decoders disagree: %s", i, d)
		}
	}

	b.Run("per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &stream[i%len(stream)]
			m, err := legacyBuild(in.app, in.arch, a.hw, a.impl)
			if err != nil {
				b.Fatal(err)
			}
			sinkMapping = m
		}
	})
	b.Run("decoder-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &stream[i%len(stream)]
			m, err := dec.Build(a.hw, a.impl)
			if err != nil {
				b.Fatal(err)
			}
			sinkMapping = m
		}
	})
	b.Run("decoder-into", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &stream[i%len(stream)]
			if err := dec.BuildInto(reused, a.hw, a.impl); err != nil {
				b.Fatal(err)
			}
		}
		sinkMapping = reused
	})
}
