package graph

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// This file compares alternative implementations of the relaxation rung
// in isolation, devel-bench style: the variant Flush replaced is kept here
// and pinned against the current one on the same recorded edit stream, so
// the choice stays justified by a number in the repo.
//
// go test -run=NONE -bench=DevelFlush ./internal/graph

// worklist replicates the drain Evaluator.Flush ran before the dense
// sweep: a bit set keyed by topological position, seeded with the marked
// nodes and grown by successor propagation as nodes change, with a
// node-id bit set deduplicating the discoveries. It visits only the nodes
// a change can reach, at the price of the successor scan per changed node.
type worklist struct {
	dirty, posDirty Bits
	visits          int64
}

func (wl *worklist) flush(e *Evaluator) int64 {
	if len(e.roots) == 0 {
		return e.maxFin
	}
	minPos := e.g.N()
	for _, v := range e.roots {
		wl.dirty.Set(int(v))
		p := e.dt.ord[v]
		wl.posDirty.Set(p)
		minPos = min(minPos, p)
	}
	e.roots = e.roots[:0]
	pd := wl.posDirty
	for wi := minPos >> 6; wi < len(pd); wi++ {
		w := pd[wi]
		if w == 0 {
			continue
		}
		pd[wi] = 0
		for w != 0 {
			v := e.dt.pos[wi<<6+bits.TrailingZeros64(w)]
			w &= w - 1
			wl.dirty.Clear(v)
			wl.visits++
			ns := e.recomputeStart(v)
			nf := ns + e.dur[v]
			if ns == e.start[v] && nf == e.fin[v] {
				continue
			}
			e.start[v] = ns
			e.fin[v] = nf
			if nf >= e.maxFin {
				e.maxFin, e.maxNode = nf, int32(v)
			} else if int32(v) == e.maxNode {
				e.rescan = true
			}
			for _, h := range e.g.succ[v] {
				s := int(h.to)
				if wl.dirty.Get(s) {
					continue
				}
				wl.dirty.Set(s)
				p := e.dt.ord[s]
				if p>>6 == wi {
					w |= 1 << (uint(p) & 63)
				} else {
					pd.Set(p)
				}
			}
		}
	}
	if e.rescan {
		e.rescanMax()
	}
	return e.maxFin
}

// Recorded edit stream ops.
const (
	opAdd int8 = iota
	opRemove
	opDur
	opFlush
)

type flushOp struct {
	kind int8
	u, v int32
	w    int64
}

// flushStream is a recorded sequence of moves against a schedule-shaped
// graph: base and dur are the starting state, ops the edits, each move
// closed by an opFlush.
type flushStream struct {
	base  *DAG
	dur   []int64
	ops   []flushOp
	moves int
}

// recordFlushStream records a stream of moves on a graph the size and
// shape of a layered-xl search graph with bus contention: 160 tasks in 16
// layers joined through ~560 communication nodes, four processor order
// chains, and a contention chain through every communication node that
// crosses the bus, re-sorted after each move by the start times of the
// chain-free graph. Each move swaps two neighbours of a processor chain
// and changes a few durations; the chain is patched as sched.IncEvaluator
// does (unlink the changed links, insert the layer edges, link the rest).
// Only the edits of the graph carrying the chain are recorded.
func recordFlushStream(moves int) *flushStream {
	const nTasks, layers, procs = 160, 16, 4
	r := rand.New(rand.NewSource(305))
	type flow struct{ from, to int }
	var flows []flow
	per := nTasks / layers
	for t := per; t < nTasks; t++ {
		l := t / per
		for k := 2 + r.Intn(4); k > 0; k-- {
			pl := l - 1 - r.Intn(min(3, l))
			flows = append(flows, flow{pl*per + r.Intn(per), t})
		}
	}
	n := nTasks + len(flows)
	p1g := New(n)
	dur := make([]int64, n)
	for t := 0; t < nTasks; t++ {
		dur[t] = int64(200 + r.Intn(4800))
	}
	var cross []int32
	for k, f := range flows {
		cn := nTasks + k
		p1g.AddEdge(f.from, cn, 0) //nolint:errcheck // acyclic by layering
		p1g.AddEdge(cn, f.to, 0)   //nolint:errcheck
		if r.Intn(3) > 0 {
			dur[cn] = int64(50 + r.Intn(450))
			cross = append(cross, int32(cn))
		}
	}
	chains := make([][]int, procs)
	for t := 0; t < nTasks; t++ {
		p := r.Intn(procs)
		if c := chains[p]; len(c) > 0 {
			p1g.AddEdge(c[len(c)-1], t, 0) //nolint:errcheck // task-id order is topological
		}
		chains[p] = append(chains[p], t)
	}
	p1, err := NewEvaluator(p1g, append([]int64(nil), dur...))
	if err != nil {
		panic(err)
	}
	full, err := NewEvaluator(p1g.Clone(), append([]int64(nil), dur...))
	if err != nil {
		panic(err)
	}
	s := &flushStream{dur: dur}
	next := make([]int32, n)
	for i := range next {
		next[i] = -1
	}
	want := make([]int32, n)
	rec := func(op flushOp) { s.ops = append(s.ops, op) }
	// relink re-sorts the chain by chain-free start, removes the links
	// that changed, inserts the move's layer edges and adds the missing
	// links: every intermediate graph is a subgraph of the final one.
	relink := func(layer [][2]int) {
		p1.Flush()
		sort.Slice(cross, func(i, j int) bool {
			si, sj := p1.Start(int(cross[i])), p1.Start(int(cross[j]))
			return si < sj || si == sj && cross[i] < cross[j]
		})
		for i := range want {
			want[i] = -1
		}
		for i := 0; i+1 < len(cross); i++ {
			want[cross[i]] = cross[i+1]
		}
		for a, b := range next {
			if b >= 0 && want[a] != b {
				full.RemoveEdge(a, int(b))
				rec(flushOp{kind: opRemove, u: int32(a), v: b})
				next[a] = -1
			}
		}
		for _, ed := range layer {
			if err := full.AddEdge(ed[0], ed[1], 0); err != nil {
				panic(err)
			}
			rec(flushOp{kind: opAdd, u: int32(ed[0]), v: int32(ed[1])})
		}
		for _, a := range cross {
			if b := want[a]; b >= 0 && next[a] != b {
				if err := full.AddEdge(int(a), int(b), 0); err != nil {
					panic(err)
				}
				rec(flushOp{kind: opAdd, u: a, v: b})
				next[a] = b
			}
		}
	}
	relink(nil)
	s.base = full.Graph().Clone()
	s.ops = s.ops[:0]
	full.Flush()
	setDur := func(v int, d int64) {
		p1.SetDur(v, d)
		full.SetDur(v, d)
		rec(flushOp{kind: opDur, v: int32(v), w: d})
	}
	for s.moves < moves {
		c := chains[r.Intn(procs)]
		if len(c) < 4 {
			continue
		}
		i := 1 + r.Intn(len(c)-3)
		x, a, b, y := c[i-1], c[i], c[i+1], c[i+2]
		del := [][2]int{{x, a}, {a, b}, {b, y}}
		ins := [][2]int{{x, b}, {b, a}, {a, y}}
		for _, ed := range del {
			p1.RemoveEdge(ed[0], ed[1])
		}
		ok := 0
		for _, ed := range ins {
			if p1.AddEdge(ed[0], ed[1], 0) != nil {
				break
			}
			ok++
		}
		if ok < len(ins) { // the swap closes a cycle: restore p1
			for _, ed := range ins[:ok] {
				p1.RemoveEdge(ed[0], ed[1])
			}
			for _, ed := range del {
				p1.AddEdge(ed[0], ed[1], 0) //nolint:errcheck // the previous, acyclic state
			}
			continue
		}
		c[i], c[i+1] = b, a
		for _, ed := range del {
			full.RemoveEdge(ed[0], ed[1])
			rec(flushOp{kind: opRemove, u: int32(ed[0]), v: int32(ed[1])})
		}
		setDur(a, max(1, p1.Dur(a)+int64(r.Intn(400)-200)))
		for k := 0; k < 2; k++ {
			cn := int(cross[r.Intn(len(cross))])
			setDur(cn, int64(50+r.Intn(450)))
		}
		relink(ins)
		full.Flush()
		rec(flushOp{kind: opFlush})
		s.moves++
	}
	return s
}

// replay applies the stream to a fresh evaluator over its base graph,
// calling flush at every move boundary, and returns the evaluator.
func (s *flushStream) replay(flush func(*Evaluator) int64, each func(mk int64)) *Evaluator {
	e, err := NewEvaluator(s.base.Clone(), append([]int64(nil), s.dur...))
	if err != nil {
		panic(err)
	}
	for _, op := range s.ops {
		s.apply(e, op, flush, each)
	}
	return e
}

func (s *flushStream) apply(e *Evaluator, op flushOp, flush func(*Evaluator) int64, each func(mk int64)) {
	switch op.kind {
	case opAdd:
		if err := e.AddEdge(int(op.u), int(op.v), op.w); err != nil {
			panic(err)
		}
	case opRemove:
		e.RemoveEdge(int(op.u), int(op.v))
	case opDur:
		e.SetDur(int(op.v), op.w)
	case opFlush:
		mk := flush(e)
		if each != nil {
			each(mk)
		}
	}
}

// TestDevelFlushStreamAgrees checks that the benchmark's two variants
// compute the same makespan after every move of the recorded stream and
// that the stream has the character the benchmark claims: even the
// worklist, which follows only changing nodes, recomputes a large share of
// the graph per move.
func TestDevelFlushStreamAgrees(t *testing.T) {
	s := recordFlushStream(60)
	var dense []int64
	s.replay((*Evaluator).Flush, func(mk int64) { dense = append(dense, mk) })
	wl := &worklist{}
	var old []int64
	e := s.replay(func(e *Evaluator) int64 {
		if wl.dirty == nil {
			wl.dirty, wl.posDirty = NewBits(e.g.N()), NewBits(e.g.N())
		}
		return wl.flush(e)
	}, func(mk int64) { old = append(old, mk) })
	if len(dense) != s.moves || len(old) != s.moves {
		t.Fatalf("%d moves, %d and %d flushes", s.moves, len(dense), len(old))
	}
	for i := range dense {
		if dense[i] != old[i] {
			t.Fatalf("move %d: dense makespan %d, worklist %d", i, dense[i], old[i])
		}
	}
	if _, mk, _ := Longest(e.Graph(), e.dur); mk != dense[len(dense)-1] {
		t.Fatalf("final makespan %d, from scratch %d", dense[len(dense)-1], mk)
	}
	per := float64(wl.visits) / float64(s.moves)
	t.Logf("the worklist recomputes %.0f of %d nodes per move", per, e.g.N())
	if per < float64(e.g.N())/4 {
		t.Fatalf("the worklist visits only %.0f of %d nodes per move: not a relax-bound stream", per, e.g.N())
	}
}

// BenchmarkDevelFlush pits the position-keyed worklist drain (with
// successor propagation and a node-id dirty set) against the dense
// positional sweep that replaced it, on one recorded layered-xl-sized
// move stream. ns/op is per move and includes the move's edge edits and
// Pearce–Kelly reorders, which both variants share; flush-ns/move is the
// flush alone.
func BenchmarkDevelFlush(b *testing.B) {
	s := recordFlushStream(400)
	bench := func(b *testing.B, flush func(*Evaluator) int64) {
		var e *Evaluator
		var inFlush time.Duration
		op, moves := len(s.ops), 0
		timed := func(e *Evaluator) int64 {
			t0 := time.Now()
			mk := flush(e)
			inFlush += time.Since(t0)
			return mk
		}
		b.ResetTimer()
		for moves < b.N {
			if op == len(s.ops) {
				b.StopTimer()
				e, _ = NewEvaluator(s.base.Clone(), append([]int64(nil), s.dur...))
				op = 0
				b.StartTimer()
			}
			if s.ops[op].kind == opFlush {
				moves++
			}
			s.apply(e, s.ops[op], timed, nil)
			op++
		}
		b.ReportMetric(float64(inFlush.Nanoseconds())/float64(b.N), "flush-ns/move")
	}
	b.Run("worklist", func(b *testing.B) {
		wl := &worklist{dirty: NewBits(s.base.N()), posDirty: NewBits(s.base.N())}
		bench(b, wl.flush)
	})
	b.Run("dense", func(b *testing.B) { bench(b, (*Evaluator).Flush) })
}
