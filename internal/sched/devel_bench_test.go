package sched

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/scenario/archgen"
)

// This file compares alternative implementations of internal evaluator
// machinery in isolation, devel-bench style: each sub-benchmark pins one
// layout or primitive against the variant that replaced it, so the choice
// stays justified by a number in the repo rather than by folklore.
//
// go test -benchmem -bench=DevelNodeLayout ./internal/sched

// The isolated rungs of the layer ladder live here and in graph's
// devel_bench_test.go: BenchmarkDevelFlush (rung 1, relaxation) and
// BenchmarkDevelIncUpdate below (rung 2, per-move evaluation).

// aosNode replicates the packed per-node record the evaluator carried
// before the struct-of-arrays conversion: hot longest-path fields (start,
// dur, indeg) interleaved with fields only the contention pass reads.
type aosNode struct {
	start, dur int64
	indeg      int32
	stamp      int32
	chainNext  int32
}

// develDAG builds a random layered DAG in the evaluator's bucketed CSR
// shape: every edge points forward, so the graph is acyclic by
// construction.
func develDAG(n, deg int) (head []int32, csr []csrEdge, durs []int64, staticIn []int32) {
	rng := rand.New(rand.NewSource(42))
	adj := make([][]csrEdge, n)
	staticIn = make([]int32, n)
	durs = make([]int64, n)
	for u := 0; u < n; u++ {
		durs[u] = int64(1 + rng.Intn(100))
		for d := 0; d < deg && u+1 < n; d++ {
			span := n - 1 - u
			if span > 16 {
				span = 16
			}
			v := u + 1 + rng.Intn(span)
			adj[u] = append(adj[u], csrEdge{to: int32(v), w: int64(rng.Intn(8))})
			staticIn[v]++
		}
	}
	head = make([]int32, n+1)
	for u := 0; u < n; u++ {
		head[u+1] = head[u] + int32(len(adj[u]))
	}
	csr = make([]csrEdge, head[n])
	for u := 0; u < n; u++ {
		copy(csr[head[u]:], adj[u])
	}
	return head, csr, durs, staticIn
}

func kahnAoS(head []int32, csr []csrEdge, nodes []aosNode, queue []int32) int64 {
	qlen := 0
	for i := range nodes {
		if nodes[i].indeg == 0 {
			queue[qlen] = int32(i)
			qlen++
		}
	}
	var mk int64
	for h := 0; h < qlen; h++ {
		u := queue[h]
		fin := nodes[u].start + nodes[u].dur
		if fin > mk {
			mk = fin
		}
		for _, ed := range csr[head[u]:head[u+1]] {
			nd := &nodes[ed.to]
			if s := fin + ed.w; s > nd.start {
				nd.start = s
			}
			nd.indeg--
			if nd.indeg == 0 {
				queue[qlen] = ed.to
				qlen++
			}
		}
	}
	return mk
}

func kahnSoA(head []int32, csr []csrEdge, start, dur []int64, indeg, queue []int32) int64 {
	qlen := 0
	for i, d := range indeg {
		if d == 0 {
			queue[qlen] = int32(i)
			qlen++
		}
	}
	var mk int64
	for h := 0; h < qlen; h++ {
		u := queue[h]
		fin := start[u] + dur[u]
		if fin > mk {
			mk = fin
		}
		for _, ed := range csr[head[u]:head[u+1]] {
			if s := fin + ed.w; s > start[ed.to] {
				start[ed.to] = s
			}
			indeg[ed.to]--
			if indeg[ed.to] == 0 {
				queue[qlen] = ed.to
				qlen++
			}
		}
	}
	return mk
}

// BenchmarkDevelNodeLayout pits the pre-PR-7 packed node record against the
// struct-of-arrays layout on the same Kahn longest-path kernel and graph.
// Both variants pay their per-evaluation reset, exactly as Evaluate does.
func BenchmarkDevelNodeLayout(b *testing.B) {
	const n, deg = 4096, 3
	head, csr, durs, staticIn := develDAG(n, deg)
	queue := make([]int32, n)

	b.Run("AoS", func(b *testing.B) {
		nodes := make([]aosNode, n)
		proto := make([]aosNode, n)
		for i := range proto {
			proto[i] = aosNode{dur: durs[i], indeg: staticIn[i], chainNext: -1}
		}
		var mk int64
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			copy(nodes, proto)
			mk = kahnAoS(head, csr, nodes, queue)
		}
		_ = mk
	})

	b.Run("SoA", func(b *testing.B) {
		start := make([]int64, n)
		dur := make([]int64, n)
		copy(dur, durs)
		indeg := make([]int32, n)
		var mk int64
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			clear(start)
			copy(indeg, staticIn)
			mk = kahnSoA(head, csr, start, dur, indeg, queue)
		}
		_ = mk
	})
}

// layeredXL builds a pair the size and shape of the layered-xl scenario
// (160-task layered DAG, 4 processors + 2 RCs, contended bus).
func layeredXL(tb testing.TB) (*model.App, *model.Arch) {
	tb.Helper()
	g, ok := apps.Lookup("layered")
	if !ok {
		tb.Fatal("no layered family")
	}
	rng := rand.New(rand.NewSource(305))
	app, err := g.Build(rng, apps.XL)
	if err != nil {
		tb.Fatal(err)
	}
	acfg := archgen.DefaultConfig()
	acfg.Processors, acfg.RCs = 4, 2
	acfg.NCLBMin, acfg.NCLBMax = 2500, 4000
	acfg.SpeedMin, acfg.SpeedMax = 0.6, 1.4
	arch, err := archgen.Generate(rng, acfg)
	if err != nil {
		tb.Fatal(err)
	}
	return app, arch
}

// incCall is one recorded IncEvaluator.Update call: the mapping and the
// change set it was given.
type incCall struct {
	m                 *Mapping
	tasks, procs, rcs []int32
}

// BenchmarkDevelIncUpdate replays a fixed layered-xl move stream through
// IncEvaluator.Update: the per-move evaluation rung, with the relaxation
// rung (graph.Evaluator.Flush, see BenchmarkDevelFlush) inside it. The
// stream is recorded once, checked move by move against the full rebuild,
// and mixes accepted, rejected and infeasible moves the way core drives
// the evaluator. ns/op is per Update call.
//
// go test -run=NONE -bench=DevelIncUpdate ./internal/sched
func BenchmarkDevelIncUpdate(b *testing.B) {
	app, arch := layeredXL(b)
	rng := rand.New(rand.NewSource(1))
	h := newIncHarness(b, app, arch, rng)
	initial := h.prev.Clone()
	var calls []incCall
	for len(calls) < 500 {
		if !h.randomMove(rng) {
			continue
		}
		cs := h.cs
		calls = append(calls, incCall{
			m:     h.m.Clone(),
			tasks: append([]int32(nil), cs.Tasks...),
			procs: append([]int32(nil), cs.Procs...),
			rcs:   append([]int32(nil), cs.RCs...),
		})
		if h.update() {
			h.settle(rng.Intn(4) == 0)
		}
	}
	inc, err := NewIncEvaluator(app, arch)
	if err != nil {
		b.Fatal(err)
	}
	cs := NewChangeSet(app.N(), len(arch.Processors), len(arch.RCs))
	next := len(calls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(calls) {
			b.StopTimer()
			if _, err := inc.Install(initial); err != nil {
				b.Fatal(err)
			}
			next = 0
			b.StartTimer()
		}
		c := &calls[next]
		cs.Tasks, cs.Procs, cs.RCs = c.tasks, c.procs, c.rcs
		inc.Update(c.m, cs) //nolint:errcheck // infeasible moves are part of the stream
		next++
	}
}
