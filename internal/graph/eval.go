package graph

// Evaluator maintains the longest-path start times of a changing DAG
// incrementally. After a batch of edge insertions/removals and duration
// changes, Flush recomputes the suffix of the dynamically maintained
// topological order that starts at the earliest node the batch touched;
// everything before it cannot have changed.
//
// This stands in for the paper's "Woodbury-type update formula" (Section
// 4.4, citing Carré): the published text does not give the formula, so we
// substitute a positional re-evaluation over a Pearce–Kelly dynamic order,
// which has the same property the paper exploits — local moves leave the
// region upstream of them untouched. Property tests check it against
// Longest (the from-scratch evaluation) on random edit sequences.
type Evaluator struct {
	g   *DAG
	dt  *DynTopo
	dur []int64

	start []int64
	fin   []int64

	// roots collects the nodes marked since the last Flush, unsorted and
	// possibly repeated: Flush only needs their lowest position.
	roots []int32

	// maxFin/maxNode track the makespan incrementally: the sweep updates
	// them as fin values change, so Flush does not rescan every node. Only
	// when the tracked argmax node's own fin *decreases* does the true
	// maximum become unknown, and rescan requests the (rare) full pass.
	maxFin  int64
	maxNode int32
	rescan  bool
}

// NewEvaluator builds an evaluator over g with node durations dur. The
// slice is used in place; use SetDur to change durations so that the
// evaluator can track what to refresh. Returns ErrCycle if g is cyclic.
func NewEvaluator(g *DAG, dur []int64) (*Evaluator, error) {
	if len(dur) != g.N() {
		panic("graph: duration slice length mismatch")
	}
	dt, err := NewDynTopo(g)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		g:     g,
		dt:    dt,
		dur:   dur,
		start: make([]int64, g.N()),
		fin:   make([]int64, g.N()),
	}
	e.fullEval()
	return e, nil
}

// fullEval recomputes every start/fin following the maintained order.
func (e *Evaluator) fullEval() {
	for i := 0; i < e.g.N(); i++ {
		v := e.dt.NodeAt(i)
		e.start[v] = e.recomputeStart(v)
		e.fin[v] = e.start[v] + e.dur[v]
	}
	e.rescanMax()
}

// rescanMax recomputes the tracked maximum fin from scratch.
func (e *Evaluator) rescanMax() {
	e.rescan = false
	var mk int64
	var mn int32
	for v, f := range e.fin {
		if f > mk {
			mk, mn = f, int32(v)
		}
	}
	e.maxFin, e.maxNode = mk, mn
}

func (e *Evaluator) recomputeStart(v int) int64 {
	var s int64
	for _, h := range e.g.pred[v] {
		if c := e.fin[h.to] + h.w; c > s {
			s = c
		}
	}
	return s
}

// AddEdge inserts edge (u,v,w) into the underlying graph, maintaining the
// topological order. If the edge would create a cycle it is not inserted
// and ErrCycle is returned. Weight updates of existing edges are allowed.
func (e *Evaluator) AddEdge(u, v int, w int64) error {
	created, err := e.g.AddEdge(u, v, w)
	if err != nil {
		return err
	}
	if created {
		if err := e.dt.OnAddEdge(u, v); err != nil {
			e.g.RemoveEdge(u, v)
			return err
		}
	}
	e.mark(v)
	return nil
}

// RemoveEdge deletes edge (u,v) and reports whether it existed.
func (e *Evaluator) RemoveEdge(u, v int) bool {
	if !e.g.RemoveEdge(u, v) {
		return false
	}
	e.mark(v)
	return true
}

// SetDur changes the duration of node v.
func (e *Evaluator) SetDur(v int, d int64) {
	if e.dur[v] == d {
		return
	}
	e.dur[v] = d
	e.mark(v)
}

// Dur returns the current duration of node v.
func (e *Evaluator) Dur(v int) int64 { return e.dur[v] }

func (e *Evaluator) mark(v int) { e.roots = append(e.roots, int32(v)) }

// Flush processes all pending changes and returns the current makespan.
//
// Every pending change sits at a marked node, and only the marked nodes'
// descendants can change with them. All of those lie at or after the
// lowest marked position of the current order (read here, after any
// OnAddEdge reorders), so one dense pass over that suffix, recomputing
// each node from its predecessors in order, restores the fixed point. On
// the schedule graphs nearly every node behind a move changes anyway, so
// the pass does not pay for a worklist that would prune almost nothing.
func (e *Evaluator) Flush() int64 {
	if len(e.roots) == 0 {
		return e.maxFin
	}
	minPos := e.g.N()
	for _, v := range e.roots {
		if p := e.dt.ord[v]; p < minPos {
			minPos = p
		}
	}
	e.roots = e.roots[:0]
	for _, v := range e.dt.pos[minPos:] {
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
			// The argmax node shrank; the true maximum may now be a node
			// this sweep never changed.
			e.rescan = true
		}
	}
	if e.rescan {
		e.rescanMax()
	}
	return e.maxFin
}

// Start returns the longest-path start time of v as of the last Flush.
func (e *Evaluator) Start(v int) int64 { return e.start[v] }

// Makespan returns the current makespan, flushing pending changes first.
func (e *Evaluator) Makespan() int64 { return e.Flush() }

// Graph returns the underlying graph (callers must mutate it only through
// the evaluator).
func (e *Evaluator) Graph() *DAG { return e.g }
