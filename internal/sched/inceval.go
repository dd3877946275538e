package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// edge3 is one sequentialization edge of a dynamic layer.
type edge3 struct {
	u, v int32
	w    int64
}

// patchKind distinguishes the two dynamic layer families.
type patchKind int8

const (
	patchProc patchKind = iota
	patchRC
)

// layerPatch is one pending layer re-derivation: the freshly generated edge
// list lives in the shared arena at [from,to), and [oa,ob) / [fa,fb) bound
// the differing windows of the stored and fresh lists after common
// prefix/suffix trimming.
type layerPatch struct {
	kind           patchKind
	idx            int32
	from, to       int32
	oa, ob, fa, fb int32
}

// IncEvaluator is the delta-based evaluation path: it keeps persistent
// search graphs per (application, architecture) pair and patches them move
// by move instead of rebuilding.
//
// The graph splits into a static skeleton — the task, flow and boot nodes
// plus the precedence edges through the communication nodes, built once at
// construction — and dynamic layers re-derived only when a move touches
// them: one software order chain per processor and one context layer per
// RC (boot duration, terminal→initial transition edges and their
// reconfiguration weights). A re-derived layer is *diffed* against its
// installed edges (common prefix/suffix trimming plus a small window
// scan), so the graph mutations per move are proportional to what the move
// actually changed, not to the layer size. Longest-path start times are
// maintained by graph.Evaluator, whose dirty propagation re-evaluates only
// the downstream cone of the patched edges over a Pearce–Kelly dynamic
// topological order.
//
// Bus contention needs the two-pass semantics of the reference path: the
// transaction serialization order is derived from the *chain-free* start
// times. A contention-mode evaluator therefore maintains two graphs — p1
// without the chain (feasibility and transaction ordering) and full with
// it (the makespan) — and likewise only diffs the chain against the new
// order. Layer insertions reach full only after its stale chain links are
// gone (see finish), so full never sees a phantom cycle.
//
// Results are bit-identical to Evaluator's: both paths derive the same
// edge multiset and the same contention order (pass-1 start times with the
// flow-node-id tie break), and the longest-path fixed point of a DAG is
// unique. The equivalence tests and the fuzz harness replay random move
// streams through both paths to enforce this.
type IncEvaluator struct {
	shape

	// p1 excludes the contention chain; nil when the bus is
	// contention-free (then full has no chain either and plays both
	// roles). full always exists and carries the makespan.
	p1   *graph.Evaluator
	full *graph.Evaluator

	// Installed dynamic layers (edge lists present in both graphs).
	swEdges [][]edge3 // per processor
	rcEdges [][]edge3 // per RC

	// queued holds the layer insertions already in p1 that full receives
	// in finish, once its stale chain links are removed.
	queued []edge3

	// Patch scratch.
	fresh   []edge3 // arena of freshly generated layer edge lists
	patches []layerPatch
	keepScr []edge3 // failure-path scratch for rebuilding a stored list
	uvScr   uvIndex // endpoint→index hash for large diff windows

	// The installed contention chain (full graph only): the ordered member
	// list and the successor of each member node.
	busNodes []int32
	busNext  []int32 // per node; -1 = not a chain member
	newNext  []int32 // scratch for the per-move chain diff

	// Last installed node/flow durations and Result accounting. The sums
	// are maintained incrementally: updates subtract the stored
	// contribution and add the recomputed one.
	taskDurV []int64
	taskIsHW []bool
	flowDurV []int64
	clbOf    []int32
	rcInit   []int64
	rcDyn    []int64
	rcCtx    []int32

	sumSW, sumHW, sumComm, sumInit, sumDyn int64
	sumCtx                                 int

	// crossIdx is the persistent list of cross-resource flow nodes (comm
	// duration > 0), kept in its last sorted order across moves so the
	// per-move re-sort is a nearly-linear insertion pass instead of a full
	// sort from node-id order. crossState tracks membership per flow
	// (crossAbsent/crossLive/crossStale); removals are lazy — finish
	// compacts the list when crossDead counts any stale entries.
	crossIdx   []int32
	crossState []int8
	crossDead  int
	crossScr   []crossKey // start-time scratch for the re-sort
	installed  bool
}

// crossKey pairs a cross-resource flow node with its chain-free start time
// for the contention-order sort.
type crossKey struct {
	s  int64
	id int32
}

const (
	crossAbsent int8 = iota
	crossLive
	crossStale
)

// NewIncEvaluator builds the static skeletons for the given pair. The
// models must already be validated; a cyclic precedence graph is an error.
func NewIncEvaluator(app *model.App, arch *model.Arch) (*IncEvaluator, error) {
	s := newShape(app, arch)
	mkGraph := func() (*graph.Evaluator, error) {
		dag := graph.New(s.v)
		for k := range app.Flows {
			fl := &app.Flows[k]
			cn := s.nTasks + k
			if _, err := dag.AddEdge(fl.From, cn, 0); err != nil {
				return nil, err
			}
			if _, err := dag.AddEdge(cn, fl.To, 0); err != nil {
				return nil, err
			}
		}
		ge, err := graph.NewEvaluator(dag, make([]int64, s.v))
		if err != nil {
			return nil, fmt.Errorf("sched: precedence graph is cyclic: %w", err)
		}
		return ge, nil
	}
	full, err := mkGraph()
	if err != nil {
		return nil, err
	}
	e := &IncEvaluator{
		shape:      s,
		full:       full,
		swEdges:    make([][]edge3, len(arch.Processors)),
		rcEdges:    make([][]edge3, len(arch.RCs)),
		busNext:    make([]int32, s.v),
		newNext:    make([]int32, s.v),
		taskDurV:   make([]int64, s.nTasks),
		taskIsHW:   make([]bool, s.nTasks),
		flowDurV:   make([]int64, s.nFlows),
		crossState: make([]int8, s.nFlows),
		clbOf:      make([]int32, s.nTasks),
		rcInit:     make([]int64, len(arch.RCs)),
		rcDyn:      make([]int64, len(arch.RCs)),
		rcCtx:      make([]int32, len(arch.RCs)),
	}
	for i := range e.busNext {
		e.busNext[i], e.newNext[i] = -1, -1
	}
	if arch.Bus.Contention {
		if e.p1, err = mkGraph(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// orderGraph returns the evaluator whose start times define the bus
// transaction order: the chain-free graph.
func (e *IncEvaluator) orderGraph() *graph.Evaluator {
	if e.p1 != nil {
		return e.p1
	}
	return e.full
}

// Install (re)builds every dynamic layer for mapping m and evaluates it.
// Use it to seat a new mapping; afterwards call Update with the change set
// of each move.
func (e *IncEvaluator) Install(m *Mapping) (Result, error) {
	e.sumSW, e.sumHW, e.sumComm = 0, 0, 0
	for t := range e.taskDurV {
		e.taskDurV[t], e.taskIsHW[t] = 0, false
	}
	for k := range e.flowDurV {
		e.flowDurV[k] = 0
	}
	// flowDurV was reset directly, bypassing the updateFlow transitions, so
	// the membership list restarts from scratch too.
	e.crossIdx = e.crossIdx[:0]
	for k := range e.crossState {
		e.crossState[k] = crossAbsent
	}
	e.crossDead = 0
	for t := 0; t < e.nTasks; t++ {
		e.updateTask(m, t)
	}
	for k := 0; k < e.nFlows; k++ {
		e.updateFlow(m, k)
	}
	e.beginPatches()
	for p := range m.SWOrders {
		e.stageProc(m, p)
	}
	for r := range m.Contexts {
		e.stageRC(m, r)
	}
	if err := e.applyPatches(); err != nil {
		return Result{}, err
	}
	e.installed = true
	return e.finish()
}

// Update re-derives the layers named by the change set from mapping m and
// returns the fresh evaluation. On ErrOrderCycle both graphs hold the same
// partial patch and the stored layer lists record it exactly, so a later
// Update whose change set still names every layer of the failed one (core
// keeps its change set across a failed move) re-derives them from whatever
// acyclic mapping it is given.
func (e *IncEvaluator) Update(m *Mapping, cs *ChangeSet) (Result, error) {
	if !e.installed {
		panic("sched: IncEvaluator.Update before Install")
	}
	// Tasks first: layer re-derivations read the refreshed CLB cache.
	for _, t := range cs.Tasks {
		e.updateTask(m, int(t))
		for _, k := range e.flowsOf[t] {
			e.updateFlow(m, int(k))
		}
	}
	e.beginPatches()
	for _, p := range cs.Procs {
		e.stageProc(m, int(p))
	}
	for _, r := range cs.RCs {
		e.stageRC(m, int(r))
	}
	if err := e.applyPatches(); err != nil {
		return Result{}, err
	}
	return e.finish()
}

// ---------- layer staging and diffing ----------

func (e *IncEvaluator) beginPatches() {
	e.fresh = e.fresh[:0]
	e.patches = e.patches[:0]
	e.queued = e.queued[:0]
}

// layerOf returns the stored edge list of a staged patch.
func (e *IncEvaluator) layerOf(pt *layerPatch) *[]edge3 {
	if pt.kind == patchProc {
		return &e.swEdges[pt.idx]
	}
	return &e.rcEdges[pt.idx]
}

// stage trims the common prefix/suffix between the stored layer and the
// fresh range and records the patch.
func (e *IncEvaluator) stage(kind patchKind, idx, from int) {
	pt := layerPatch{kind: kind, idx: int32(idx), from: int32(from), to: int32(len(e.fresh))}
	old := *e.layerOf(&pt)
	fr := e.fresh[pt.from:pt.to]
	a := 0
	for a < len(old) && a < len(fr) && old[a] == fr[a] {
		a++
	}
	ob, fb := len(old), len(fr)
	for ob > a && fb > a && old[ob-1] == fr[fb-1] {
		ob--
		fb--
	}
	pt.oa, pt.ob, pt.fa, pt.fb = int32(a), int32(ob), int32(a), int32(fb)
	if pt.oa != pt.ob || pt.fa != pt.fb {
		e.patches = append(e.patches, pt)
	}
}

// stageProc generates processor p's fresh chain edges and stages the diff.
func (e *IncEvaluator) stageProc(m *Mapping, p int) {
	from := len(e.fresh)
	order := m.SWOrders[p]
	for i := 1; i < len(order); i++ {
		e.fresh = append(e.fresh, edge3{u: int32(order[i-1]), v: int32(order[i])})
	}
	e.stage(patchProc, p, from)
}

// stageRC generates RC r's fresh context edges, refreshes its boot
// duration and its contribution to the reconfiguration/context sums, and
// stages the diff.
func (e *IncEvaluator) stageRC(m *Mapping, r int) {
	e.sumInit -= e.rcInit[r]
	e.sumDyn -= e.rcDyn[r]
	e.sumCtx -= int(e.rcCtx[r])
	e.rcInit[r], e.rcDyn[r], e.rcCtx[r] = 0, 0, 0

	from := len(e.fresh)
	e.nonEmpty = e.nonEmpty[:0]
	for ci := range m.Contexts[r] {
		if len(m.Contexts[r][ci].Tasks) > 0 {
			e.nonEmpty = append(e.nonEmpty, int32(ci))
		}
	}
	e.rcCtx[r] = int32(len(e.nonEmpty))
	e.sumCtx += len(e.nonEmpty)
	if len(e.nonEmpty) == 0 {
		e.setBootDur(r, 0)
		e.stage(patchRC, r, from)
		return
	}
	tr := int64(e.arch.RCs[r].TR)
	boot := int32(e.BootNode(r))
	prevTerm := e.termBuf[:0]
	for x, ci32 := range e.nonEmpty {
		ci := int(ci32)
		curInit, curTerm := e.collectBoth(m, r, ci, e.initialBuf[:0], e.termBuf2[:0])
		var w int64
		for _, t := range m.Contexts[r][ci].Tasks {
			w += int64(e.clbOf[t])
		}
		w *= tr
		if x == 0 {
			e.setBootDur(r, w)
			e.rcInit[r] = w
			for _, t := range curInit {
				e.fresh = append(e.fresh, edge3{u: boot, v: t})
			}
		} else {
			e.rcDyn[r] += w
			for _, tp := range prevTerm {
				for _, tn := range curInit {
					e.fresh = append(e.fresh, edge3{u: tp, v: tn, w: w})
				}
			}
		}
		e.initialBuf = curInit
		e.termBuf, e.termBuf2 = curTerm, prevTerm
		prevTerm = curTerm
	}
	e.sumInit += e.rcInit[r]
	e.sumDyn += e.rcDyn[r]
	e.stage(patchRC, r, from)
}

// findUV returns the index of the edge (u,v) in xs, or -1.
func findUV(xs []edge3, u, v int32) int {
	for i := range xs {
		if xs[i].u == u && xs[i].v == v {
			return i
		}
	}
	return -1
}

// uvIndex is a small open-addressing hash from edge endpoints to the edge's
// index in a window slice. Context-layer diffs can carry windows of dozens
// of edges (a CLB-sum change rewrites every transition weight of the RC),
// where the quadratic findUV scans dominated the move cost; the index makes
// each lookup O(1). Rebuilt per window from a reused scratch allocation.
type uvIndex struct {
	keys []int64 // packed (u<<32|v); -1 = empty slot
	idxs []int32
	mask uint64
}

// uvSmall is the window size below which the linear findUV scan wins.
const uvSmall = 8

func (ix *uvIndex) build(win []edge3) {
	n := 16
	for n < 2*len(win) {
		n <<= 1
	}
	if cap(ix.keys) < n {
		ix.keys = make([]int64, n)
		ix.idxs = make([]int32, n)
	}
	ix.keys = ix.keys[:n]
	ix.idxs = ix.idxs[:n]
	for i := range ix.keys {
		ix.keys[i] = -1
	}
	ix.mask = uint64(n - 1)
	// Insert back to front so the lowest index wins, matching findUV's
	// first-match semantics.
	for i := len(win) - 1; i >= 0; i-- {
		key := int64(win[i].u)<<32 | int64(win[i].v)
		slot := (uint64(key) * 0x9e3779b97f4a7c15) >> 32 & ix.mask
		for ix.keys[slot] >= 0 && ix.keys[slot] != key {
			slot = (slot + 1) & ix.mask
		}
		ix.keys[slot] = key
		ix.idxs[slot] = int32(i)
	}
}

// find returns the index of (u,v) in the window the table was built from,
// or -1.
func (ix *uvIndex) find(u, v int32) int {
	key := int64(u)<<32 | int64(v)
	slot := (uint64(key) * 0x9e3779b97f4a7c15) >> 32 & ix.mask
	for {
		k := ix.keys[slot]
		if k == key {
			return int(ix.idxs[slot])
		}
		if k < 0 {
			return -1
		}
		slot = (slot + 1) & ix.mask
	}
}

// applyPatches performs every staged diff: first all removals, then all
// insertions. The global remove-before-add order matters — a new edge of
// one layer could otherwise close a phantom cycle through a doomed old
// edge of another layer that merely had not been removed yet. Removals go
// to both graphs, insertions to the feasibility graph (see addEdge).
func (e *IncEvaluator) applyPatches() error {
	for i := range e.patches {
		pt := &e.patches[i]
		old := *e.layerOf(pt)
		frWin := e.fresh[pt.from+pt.fa : pt.from+pt.fb]
		oldWin := old[pt.oa:pt.ob]
		hashed := len(frWin) > uvSmall && len(oldWin) > 1
		if hashed {
			e.uvScr.build(frWin)
		}
		for _, oe := range oldWin {
			var fi int
			if hashed {
				fi = e.uvScr.find(oe.u, oe.v)
			} else {
				fi = findUV(frWin, oe.u, oe.v)
			}
			if fi < 0 {
				e.full.RemoveEdge(int(oe.u), int(oe.v))
				if e.p1 != nil {
					e.p1.RemoveEdge(int(oe.u), int(oe.v))
				}
			}
		}
	}
	for i := range e.patches {
		pt := &e.patches[i]
		layer := e.layerOf(pt)
		oldWin := (*layer)[pt.oa:pt.ob]
		frWin := e.fresh[pt.from+pt.fa : pt.from+pt.fb]
		hashed := len(oldWin) > uvSmall && len(frWin) > 1
		if hashed {
			e.uvScr.build(oldWin)
		}
		for wi := range frWin {
			ne := frWin[wi]
			var oi int
			if hashed {
				oi = e.uvScr.find(ne.u, ne.v)
			} else {
				oi = findUV(oldWin, ne.u, ne.v)
			}
			if oi >= 0 && oldWin[oi].w == ne.w {
				continue
			}
			// Absent edge, or weight-only change (AddEdge on an existing
			// edge updates the weight and marks, with no cycle risk).
			if err := e.addEdge(ne); err != nil {
				e.recordPartial(i, wi)
				// Bring full to p1's edge set, the one the recorded lists
				// describe: no chain, every applied insertion. (Both steps
				// are no-ops when the bus is contention-free.)
				e.dropChain()
				e.installQueued()
				return err
			}
		}
		// Success: the installed layer is exactly the fresh list.
		*layer = append((*layer)[:0], e.fresh[pt.from:pt.to]...)
	}
	return nil
}

// recordPartial rewrites the stored lists of the failed patch and every
// patch after it following a mid-add cycle failure, so that each list
// reflects exactly what is installed: the trimmed prefix/suffix, the
// window survivors, and — for the failed layer — the window edges applied
// before the failure. (Patches before failedIdx committed normally; later
// patches had their removals applied but no insertions.) The caller then
// reverts the mapping and re-runs Update with the same change set, which
// diffs these recorded lists back to the pre-move state.
func (e *IncEvaluator) recordPartial(failedIdx, added int) {
	for i := failedIdx; i < len(e.patches); i++ {
		pt := &e.patches[i]
		layer := e.layerOf(pt)
		old := *layer
		frWin := e.fresh[pt.from+pt.fa : pt.from+pt.fb]
		scr := e.keepScr[:0]
		scr = append(scr, old[:pt.oa]...)
		for _, oe := range old[pt.oa:pt.ob] {
			if findUV(frWin, oe.u, oe.v) >= 0 {
				scr = append(scr, oe)
			}
		}
		scr = append(scr, old[pt.ob:]...)
		if i == failedIdx {
			for _, ne := range frWin[:added] {
				if ki := findUV(scr, ne.u, ne.v); ki >= 0 {
					scr[ki].w = ne.w // weight update that was already applied
				} else {
					scr = append(scr, ne)
				}
			}
		}
		*layer = append((*layer)[:0], scr...)
		e.keepScr = scr
	}
}

// addEdge inserts one sequentialization edge into the feasibility graph —
// p1, or full when the bus is contention-free — and, under contention,
// queues it for full. The chain-free graph alone decides feasibility.
func (e *IncEvaluator) addEdge(ed edge3) error {
	if err := e.orderGraph().AddEdge(int(ed.u), int(ed.v), ed.w); err != nil {
		return ErrOrderCycle
	}
	if e.p1 != nil {
		e.queued = append(e.queued, ed)
	}
	return nil
}

// installQueued applies the queued layer insertions to full. Callers first
// remove every chain link the final graph does not keep, so full is then a
// subgraph of an acyclic graph and the insertions cannot close a cycle.
func (e *IncEvaluator) installQueued() {
	for _, ed := range e.queued {
		if err := e.full.AddEdge(int(ed.u), int(ed.v), ed.w); err != nil {
			panic(fmt.Sprintf("sched: layer edge (%d,%d) acyclic in p1 but cyclic in full", ed.u, ed.v))
		}
	}
	e.queued = e.queued[:0]
}

// ---------- durations and accounting ----------

// updateTask refreshes task t's duration, compute-sum contribution and
// cached CLB count from the mapping.
func (e *IncEvaluator) updateTask(m *Mapping, t int) {
	old := e.taskDurV[t]
	if e.taskIsHW[t] {
		e.sumHW -= old
	} else {
		e.sumSW -= old
	}
	pl := m.Assign[t]
	var d int64
	hw := pl.Kind != model.KindProcessor
	if hw {
		base := int(e.implOff[t]) + m.Impl[t]
		d = e.hwTime[base]
		e.clbOf[t] = e.hwCLB[base]
		e.sumHW += d
	} else {
		d = e.swTime[pl.Res][t]
		e.sumSW += d
	}
	e.taskDurV[t] = d
	e.taskIsHW[t] = hw
	e.full.SetDur(t, d)
	if e.p1 != nil {
		e.p1.SetDur(t, d)
	}
}

// updateFlow refreshes flow k's communication duration and the flow's
// membership in the persistent cross-resource list. A flow can be refreshed
// twice in one Update (both endpoints in the change set); the state machine
// makes the second refresh a no-op instead of a duplicate entry.
func (e *IncEvaluator) updateFlow(m *Mapping, k int) {
	d := e.flowDur(m, k)
	e.sumComm += d - e.flowDurV[k]
	e.flowDurV[k] = d
	switch cross := d > 0; {
	case cross && e.crossState[k] == crossAbsent:
		e.crossState[k] = crossLive
		e.crossIdx = append(e.crossIdx, int32(e.nTasks+k))
	case cross && e.crossState[k] == crossStale:
		e.crossState[k] = crossLive
		e.crossDead--
	case !cross && e.crossState[k] == crossLive:
		e.crossState[k] = crossStale
		e.crossDead++
	}
	e.full.SetDur(e.nTasks+k, d)
	if e.p1 != nil {
		e.p1.SetDur(e.nTasks+k, d)
	}
}

// setBootDur sets the boot node duration of RC r in both graphs.
func (e *IncEvaluator) setBootDur(r int, d int64) {
	e.full.SetDur(e.BootNode(r), d)
	if e.p1 != nil {
		e.p1.SetDur(e.BootNode(r), d)
	}
}

// ---------- the contention chain ----------

// dropChain removes the whole contention chain from the full graph.
func (e *IncEvaluator) dropChain() {
	for _, a := range e.busNodes {
		if nx := e.busNext[a]; nx >= 0 {
			e.full.RemoveEdge(int(a), int(nx))
			e.busNext[a] = -1
		}
	}
	e.busNodes = e.busNodes[:0]
}

// finish flushes the pending patches, re-derives the bus contention chain
// from the chain-free start times (patching only the edges whose order
// changed) and assembles the Result. Under contention the order is: flush
// p1, sort the cross-resource flows, unlink the chain links that changed,
// install the queued layer insertions, link the new chain, flush full.
func (e *IncEvaluator) finish() (Result, error) {
	if e.p1 != nil {
		e.p1.Flush()
		if e.crossDead > 0 {
			w := 0
			for _, n := range e.crossIdx {
				if e.crossState[int(n)-e.nTasks] == crossLive {
					e.crossIdx[w] = n
					w++
				} else {
					e.crossState[int(n)-e.nTasks] = crossAbsent
				}
			}
			e.crossIdx = e.crossIdx[:w]
			e.crossDead = 0
		}
		e.sortCrossByStart()
		e.patchChain()
	}
	return Result{
		Makespan:        model.Time(e.full.Flush()),
		InitialReconfig: model.Time(e.sumInit),
		DynamicReconfig: model.Time(e.sumDyn),
		Comm:            model.Time(e.sumComm),
		ComputeSW:       model.Time(e.sumSW),
		ComputeHW:       model.Time(e.sumHW),
		Contexts:        e.sumCtx,
	}, nil
}

// patchChain diffs the installed contention chain against the freshly
// sorted crossIdx, removes the links that changed, installs the queued
// layer insertions and adds the missing links. Every graph along the way
// is a subgraph of the final one (layers plus new chain), which is
// acyclic: chain edges follow the chain-free start order, so around any
// would-be cycle the chain-free starts must be non-decreasing, hence all
// equal, which forces every graph edge on it to leave a zero-duration node
// and every chain edge to leave a positive-duration one — so the cycle
// would consist of chain edges alone, and the chain is a simple path.
func (e *IncEvaluator) patchChain() {
	for i := 0; i+1 < len(e.crossIdx); i++ {
		e.newNext[e.crossIdx[i]] = e.crossIdx[i+1]
	}
	// Remove members whose successor changed or vanished.
	for _, a := range e.busNodes {
		if old := e.busNext[a]; old >= 0 && e.newNext[a] != old {
			e.full.RemoveEdge(int(a), int(old))
			e.busNext[a] = -1
		}
	}
	e.installQueued()
	// Add the missing links and reset the scratch.
	for i := 0; i+1 < len(e.crossIdx); i++ {
		a, b := e.crossIdx[i], e.crossIdx[i+1]
		if e.busNext[a] != b {
			if err := e.full.AddEdge(int(a), int(b), 0); err != nil {
				panic(fmt.Sprintf("sched: contention chain edge (%d,%d) created a cycle", a, b))
			}
			e.busNext[a] = b
		}
		e.newNext[a] = -1
	}
	e.busNodes = append(e.busNodes[:0], e.crossIdx...)
}

// sortCrossByStart insertion-sorts the cross-resource flow nodes by
// (chain-free start time, node id) — the same key the full-rebuild path
// uses, so both paths serialize the bus identically. The keys are staged
// into a contiguous scratch first (one Start lookup per node, not per
// comparison), and crossIdx arrives in its previous sorted order, so on
// typical moves the pass is nearly linear.
func (e *IncEvaluator) sortCrossByStart() {
	ge := e.orderGraph()
	if cap(e.crossScr) < len(e.crossIdx) {
		e.crossScr = make([]crossKey, len(e.crossIdx))
	}
	scr := e.crossScr[:len(e.crossIdx)]
	for i, n := range e.crossIdx {
		scr[i] = crossKey{s: ge.Start(int(n)), id: n}
	}
	for i := 1; i < len(scr); i++ {
		x := scr[i]
		j := i - 1
		for j >= 0 && (scr[j].s > x.s || (scr[j].s == x.s && scr[j].id > x.id)) {
			scr[j+1] = scr[j]
			j--
		}
		scr[j+1] = x
	}
	for i, k := range scr {
		e.crossIdx[i] = k.id
	}
}
