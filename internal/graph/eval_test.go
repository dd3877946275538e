package graph

import (
	"math/rand"
	"testing"
)

func evalMatchesFull(t *testing.T, e *Evaluator, dur []int64) {
	t.Helper()
	mk := e.Flush()
	start, want, err := Longest(e.Graph(), dur)
	if err != nil {
		t.Fatal(err)
	}
	if mk != want {
		t.Fatalf("incremental makespan %d != full %d", mk, want)
	}
	for v := range start {
		if e.Start(v) != start[v] {
			t.Fatalf("start[%d]: incremental %d != full %d", v, e.Start(v), start[v])
		}
	}
}

func TestEvaluatorStaticMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(25)
		g := randomDAG(r, n, 0.3)
		dur := make([]int64, n)
		for i := range dur {
			dur[i] = int64(r.Intn(100))
		}
		e, err := NewEvaluator(g, append([]int64(nil), dur...))
		if err != nil {
			t.Fatal(err)
		}
		evalMatchesFull(t, e, dur)
	}
}

func TestEvaluatorAddRemoveEdges(t *testing.T) {
	g := New(4)
	dur := []int64{10, 20, 30, 40}
	e, err := NewEvaluator(g, append([]int64(nil), dur...))
	if err != nil {
		t.Fatal(err)
	}
	if mk := e.Flush(); mk != 40 {
		t.Fatalf("empty makespan = %d, want 40", mk)
	}
	if err := e.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if mk := e.Flush(); mk != 60 {
		t.Fatalf("chain makespan = %d, want 60", mk)
	}
	if err := e.AddEdge(2, 3, 5); err != nil {
		t.Fatal(err)
	}
	if mk := e.Flush(); mk != 105 {
		t.Fatalf("makespan = %d, want 105", mk)
	}
	if !e.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge returned false")
	}
	if mk := e.Flush(); mk != 75 { // 2(30)+5+40 = 75
		t.Fatalf("makespan after removal = %d, want 75", mk)
	}
}

func TestEvaluatorRejectsCycle(t *testing.T) {
	g := New(3)
	dur := []int64{1, 1, 1}
	e, _ := NewEvaluator(g, dur)
	e.AddEdge(0, 1, 0) //nolint:errcheck
	e.AddEdge(1, 2, 0) //nolint:errcheck
	if err := e.AddEdge(2, 0, 0); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	// The rejected edge must not linger in the graph.
	if e.Graph().HasEdge(2, 0) {
		t.Fatal("rejected edge present in graph")
	}
	if mk := e.Flush(); mk != 3 {
		t.Fatalf("makespan = %d, want 3", mk)
	}
}

func TestEvaluatorSetDur(t *testing.T) {
	g := New(2)
	e, _ := NewEvaluator(g, []int64{5, 5})
	e.AddEdge(0, 1, 0) //nolint:errcheck
	if mk := e.Flush(); mk != 10 {
		t.Fatalf("makespan = %d, want 10", mk)
	}
	e.SetDur(0, 50)
	if e.Dur(0) != 50 {
		t.Fatalf("Dur(0) = %d", e.Dur(0))
	}
	if mk := e.Flush(); mk != 55 {
		t.Fatalf("makespan = %d, want 55", mk)
	}
	e.SetDur(1, 0)
	if mk := e.Flush(); mk != 50 {
		t.Fatalf("makespan = %d, want 50", mk)
	}
}

// Property: after any random sequence of legal edits, the incremental
// evaluator agrees with the from-scratch evaluation. This is the ground
// truth test for the Woodbury-substitute (see DESIGN.md §3).
func TestEvaluatorRandomEditsMatchFull(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(20)
		g := New(n)
		dur := make([]int64, n)
		for i := range dur {
			dur[i] = int64(r.Intn(60))
		}
		e, err := NewEvaluator(g, dur)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 120; step++ {
			switch r.Intn(4) {
			case 0, 1: // add edge
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					continue
				}
				err := e.AddEdge(u, v, int64(r.Intn(20)))
				if err != nil && err != ErrCycle {
					t.Fatal(err)
				}
			case 2: // remove random existing edge
				edges := e.Graph().Edges()
				if len(edges) == 0 {
					continue
				}
				ed := edges[r.Intn(len(edges))]
				e.RemoveEdge(ed.U, ed.V)
			case 3: // change a duration
				e.SetDur(r.Intn(n), int64(r.Intn(60)))
			}
			if step%7 == 0 {
				durNow := make([]int64, n)
				for i := range durNow {
					durNow[i] = e.Dur(i)
				}
				evalMatchesFull(t, e, durNow)
			}
		}
		durNow := make([]int64, n)
		for i := range durNow {
			durNow[i] = e.Dur(i)
		}
		evalMatchesFull(t, e, durNow)
	}
}

// newRandomEvaluator builds an evaluator over a random DAG with random
// durations.
func newRandomEvaluator(t *testing.T, r *rand.Rand, n int) *Evaluator {
	t.Helper()
	dur := make([]int64, n)
	for i := range dur {
		dur[i] = int64(1 + r.Intn(60))
	}
	e, err := NewEvaluator(randomDAG(r, n, 0.15), dur)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Property: a node marked and then moved to an earlier position by a later
// OnAddEdge reorder is still swept from its position at Flush time.
func TestEvaluatorFlushAfterReorder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	moved := 0
	for trial := 0; trial < 40; trial++ {
		n := 8 + r.Intn(20)
		e := newRandomEvaluator(t, r, n)
		for round := 0; round < 40; round++ {
			// Mark u (a duration change), then insert an edge from u to
			// an earlier node, which pulls u ahead of it.
			u := r.Intn(n)
			e.SetDur(u, int64(1+r.Intn(60)))
			before := e.dt.Pos(u)
			if before == 0 {
				continue
			}
			v := e.dt.NodeAt(r.Intn(before))
			if err := e.AddEdge(u, v, int64(r.Intn(20))); err != nil && err != ErrCycle {
				t.Fatal(err)
			}
			if e.dt.Pos(u) < before {
				moved++
			}
			if round%3 == 0 {
				ed := e.Graph().Edges()
				if len(ed) > 0 {
					x := ed[r.Intn(len(ed))]
					e.RemoveEdge(x.U, x.V)
				}
			}
			evalMatchesFull(t, e, e.dur)
		}
	}
	if moved < 100 {
		t.Fatalf("only %d marked nodes moved before their flush", moved)
	}
}

// Property: marking a node many times between flushes (repeated duration
// changes, repeated weight updates of one edge) is harmless.
func TestEvaluatorDuplicateMarks(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	dups := 0
	for trial := 0; trial < 40; trial++ {
		n := 6 + r.Intn(20)
		e := newRandomEvaluator(t, r, n)
		edges := e.Graph().Edges()
		if len(edges) == 0 {
			continue
		}
		for round := 0; round < 30; round++ {
			v := r.Intn(n)
			ed := edges[r.Intn(len(edges))]
			for k := 0; k < 1+r.Intn(4); k++ {
				e.SetDur(v, int64(1+r.Intn(60)))
				e.AddEdge(ed.U, ed.V, int64(r.Intn(40))) //nolint:errcheck // an existing edge: a weight update
			}
			seen := map[int32]bool{}
			for _, x := range e.roots {
				if seen[x] {
					dups++
					break
				}
				seen[x] = true
			}
			evalMatchesFull(t, e, e.dur)
		}
	}
	if dups < 100 {
		t.Fatalf("only %d flushes saw duplicate marks", dups)
	}
}

// Property: when the argmax node's fin shrinks, Flush finds the new
// maximum even where the sweep changed no node (the rescan path).
func TestEvaluatorArgmaxShrinks(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	shrunk := 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(20)
		e := newRandomEvaluator(t, r, n)
		for round := 0; round < 30; round++ {
			mk := e.Flush()
			top := int(e.maxNode)
			if r.Intn(2) == 0 {
				e.SetDur(top, int64(r.Intn(int(e.dur[top])+1)))
			} else if ps := e.Graph().pred[top]; len(ps) > 0 {
				e.RemoveEdge(int(ps[r.Intn(len(ps))].to), top)
			}
			evalMatchesFull(t, e, e.dur)
			if e.fin[top] < mk {
				shrunk++
			}
			// Grow a random node so the maximum keeps moving around.
			v := r.Intn(n)
			e.SetDur(v, e.dur[v]+int64(r.Intn(40)))
		}
	}
	if shrunk < 100 {
		t.Fatalf("only %d flushes shrank the argmax node", shrunk)
	}
}
