package graph

import "math/bits"

// LaneSweep scores up to 64 speculative variants ("lanes") of an
// Evaluator's schedule in one shared relaxation sweep over the base
// topological order. Each lane is described as a sparse diff against the
// evaluator's current (flushed) state — a handful of duration overrides,
// edge insertions and edge removals — and the sweep computes, per lane,
// the start/fin values and makespan the Evaluator would report if that
// lane's diff were applied and flushed. The base evaluator is never
// mutated.
//
// Lanes share everything that dominates the serial cost: the node scan,
// the base adjacency traversal, and the cache traffic of the base
// start/fin arrays. Per-lane state exists only for nodes inside that
// lane's affected cone ("diverged" nodes): a per-node lane bitmask says
// which lanes diverge at the node, and the diverged values live in a
// dense lane-strided slab. A node no lane touches costs nothing; a node
// one lane touches costs one relaxation.
//
// Because a lane's edge insertions may point *backward* in the base
// order, a single forward scan is not enough; the sweep runs multiple
// passes, deferring marks that land behind the cursor to the next pass.
// For a lane whose effective graph is acyclic, every simple path crosses
// at most B backward insertions (B = that lane's count of inserted edges
// whose target precedes their source in the base order), so the lane
// stabilizes within B+2 passes. A lane whose effective graph is *cyclic*
// never stabilizes — provided every cycle has positive total gain
// (duration plus edge weight), which holds for the schedule graphs
// because every cycle passes through a task node and task durations are
// validated positive — so a lane still marking nodes after its pass
// budget is reported infeasible. This makes the feasibility verdict a
// property of the lane's final edge set, exactly matching the serial
// evaluator, which rejects a move if and only if the resulting edge set
// is cyclic.
//
// Within one round (Begin..Run) the resolution rule for conflicting ops
// on the same lane and edge is "insert wins over remove", and an
// insertion of an edge that already exists in the base graph overrides
// its weight. Callers must not insert the same (u,v) twice in one lane.
type LaneSweep struct {
	e *Evaluator

	round  int32
	stride int
	alive  uint64
	infeas uint64

	// Per-node round-stamped state. A node is "touched" once per round on
	// first contact; untouched nodes cost nothing and their entries are
	// stale garbage guarded by stamp.
	stamp   []int32
	inHead  []int32 // head of the node's in-op chain (adds + removes targeting it)
	outHead []int32 // head of the node's out-op chain (adds sourced at it)
	durHead []int32 // head of the node's duration-override chain
	slot    []int32 // slab slot of a diverged node, -1 = none
	curMask []uint64
	nxtMask []uint64
	divMask []uint64
	inOpM   []uint64 // lanes with any in-op at the node (suppression fast path)
	durOpM  []uint64 // lanes with a duration override at the node

	inOps  []laneEdgeOp
	outOps []laneEdgeOp
	durOps []laneDurOp

	// The pass worklists are bit sets keyed by base topological position,
	// scanned front to back. Marks behind the cursor go to the next-pass
	// pair.
	posDirty Bits
	nxtDirty Bits
	minPos   int
	nxtMin   int
	pending  uint64 // lanes with next-pass marks

	backAdds [64]int32
	passes   [64]int32

	// Diverged-value slab: slabNodes[i] is the node occupying slot i, its
	// per-lane values live at [i*stride, (i+1)*stride). Validity is the
	// node's divMask bit, so the slab is never cleared.
	slabNodes []int32
	startSlab []int64
	finSlab   []int64

	sweepNodes int64 // distinct (node, pass) visits
	laneRelax  int64 // per-lane relaxations performed
	passSum    int64 // per-lane pass counts, summed
	killed     int64 // lanes killed by the pass-budget rule

	// nsBuf is relaxAll's per-visit start accumulator; only the lanes of
	// the visit mask are zeroed, so the 512-byte clear a stack array
	// would need on every visit is avoided.
	nsBuf [64]int64
}

const (
	laneOpAdd int8 = iota
	laneOpRemove
)

type laneEdgeOp struct {
	w     int64
	other int32
	next  int32
	lane  int16
	kind  int8
}

type laneDurOp struct {
	d    int64
	next int32
	lane int16
}

var laneZeros [64]int64

// NewLaneSweep builds a lane sweep over e. The evaluator's node count
// must not change afterwards (it never does: the schedule graphs are
// fixed-size).
func NewLaneSweep(e *Evaluator) *LaneSweep {
	n := e.g.N()
	s := &LaneSweep{
		e:        e,
		stamp:    make([]int32, n),
		inHead:   make([]int32, n),
		outHead:  make([]int32, n),
		durHead:  make([]int32, n),
		slot:     make([]int32, n),
		curMask:  make([]uint64, n),
		nxtMask:  make([]uint64, n),
		divMask:  make([]uint64, n),
		inOpM:    make([]uint64, n),
		durOpM:   make([]uint64, n),
		posDirty: NewBits(n),
		nxtDirty: NewBits(n),
	}
	// round 0 is never used, so zeroed stamps read as "untouched".
	s.round = 0
	return s
}

// Begin starts a round of k lanes (1..64), flushing the base evaluator
// so lane relaxation reads a converged base schedule. Ops recorded after
// Begin apply to this round only.
func (s *LaneSweep) Begin(k int) {
	if k < 1 || k > 64 {
		panic("graph: lane count out of range [1,64]")
	}
	s.e.Flush()
	s.round++
	s.stride = k
	if k == 64 {
		s.alive = ^uint64(0)
	} else {
		s.alive = uint64(1)<<uint(k) - 1
	}
	s.infeas = 0
	s.inOps = s.inOps[:0]
	s.outOps = s.outOps[:0]
	s.durOps = s.durOps[:0]
	s.slabNodes = s.slabNodes[:0]
	s.startSlab = s.startSlab[:0]
	s.finSlab = s.finSlab[:0]
	// Run leaves marks of infeasible lanes behind in the worklists; clear
	// both so every bit set this round points at a touched node.
	s.posDirty.Reset()
	s.nxtDirty.Reset()
	n := s.e.g.N()
	s.minPos, s.nxtMin = n, n
	s.pending = 0
	for l := 0; l < k; l++ {
		s.backAdds[l], s.passes[l] = 0, 0
	}
}

func (s *LaneSweep) touch(v int) {
	if s.stamp[v] == s.round {
		return
	}
	s.stamp[v] = s.round
	s.inHead[v] = -1
	s.outHead[v] = -1
	s.durHead[v] = -1
	s.slot[v] = -1
	s.curMask[v] = 0
	s.nxtMask[v] = 0
	s.divMask[v] = 0
	s.inOpM[v] = 0
	s.durOpM[v] = 0
}

func (s *LaneSweep) seed(l, v int) {
	bit := uint64(1) << uint(l)
	if s.curMask[v]&bit != 0 {
		return
	}
	s.curMask[v] |= bit
	p := s.e.dt.ord[v]
	s.posDirty.Set(p)
	if p < s.minPos {
		s.minPos = p
	}
}

// SetDur overrides the duration of node v in lane l. A later override of
// the same node in the same lane wins.
func (s *LaneSweep) SetDur(l, v int, d int64) {
	s.touch(v)
	s.durOps = append(s.durOps, laneDurOp{d: d, next: s.durHead[v], lane: int16(l)})
	s.durHead[v] = int32(len(s.durOps) - 1)
	s.durOpM[v] |= 1 << uint(l)
	s.seed(l, v)
}

// AddEdge inserts edge (u,v,w) in lane l. Inserting over an existing
// base edge overrides its weight; inserting over a removal of the same
// edge in the same lane wins (the serial evaluator applies removals
// before insertions, with the same net effect).
func (s *LaneSweep) AddEdge(l, u, v int, w int64) {
	s.touch(u)
	s.touch(v)
	s.inOps = append(s.inOps, laneEdgeOp{w: w, other: int32(u), next: s.inHead[v], lane: int16(l), kind: laneOpAdd})
	s.inHead[v] = int32(len(s.inOps) - 1)
	s.inOpM[v] |= 1 << uint(l)
	s.outOps = append(s.outOps, laneEdgeOp{other: int32(v), next: s.outHead[u], lane: int16(l), kind: laneOpAdd})
	s.outHead[u] = int32(len(s.outOps) - 1)
	if s.e.dt.ord[v] < s.e.dt.ord[u] {
		s.backAdds[l]++
	}
	s.seed(l, v)
}

// RemoveEdge deletes base edge (u,v) in lane l. Removing an edge the
// base graph does not have is a no-op.
func (s *LaneSweep) RemoveEdge(l, u, v int) {
	s.touch(v)
	s.inOps = append(s.inOps, laneEdgeOp{other: int32(u), next: s.inHead[v], lane: int16(l), kind: laneOpRemove})
	s.inHead[v] = int32(len(s.inOps) - 1)
	s.inOpM[v] |= 1 << uint(l)
	s.seed(l, v)
}

// Disable drops lane l from the round: Run will not relax it and its
// pending marks are ignored. Used to skip lanes another sweep already
// proved infeasible.
func (s *LaneSweep) Disable(l int) { s.alive &^= 1 << uint(l) }

// hasInOp reports whether lane l has any op (add or remove) for base
// pred u at the node whose in-chain starts at head — such an op
// suppresses the base edge (a removal hides it, an insertion overrides
// it and contributes its own weight via the add scan).
func (s *LaneSweep) hasInOp(l int, head int32, u int) bool {
	for oi := head; oi >= 0; oi = s.inOps[oi].next {
		op := &s.inOps[oi]
		if int(op.lane) == l && int(op.other) == u {
			return true
		}
	}
	return false
}

func (s *LaneSweep) effFin(l, u int) int64 {
	if s.stamp[u] == s.round && s.divMask[u]>>uint(l)&1 != 0 {
		return s.finSlab[int(s.slot[u])*s.stride+l]
	}
	return s.e.fin[u]
}

func (s *LaneSweep) effDur(l, v int) int64 {
	for oi := s.durHead[v]; oi >= 0; oi = s.durOps[oi].next {
		if int(s.durOps[oi].lane) == l {
			return s.durOps[oi].d
		}
	}
	return s.e.dur[v]
}

func (s *LaneSweep) writeVals(l, v int, ns, nf int64) {
	si := s.slot[v]
	if si < 0 {
		si = int32(len(s.slabNodes))
		s.slot[v] = si
		s.slabNodes = append(s.slabNodes, int32(v))
		s.startSlab = append(s.startSlab, laneZeros[:s.stride]...)
		s.finSlab = append(s.finSlab, laneZeros[:s.stride]...)
	}
	base := int(si) * s.stride
	s.startSlab[base+l] = ns
	s.finSlab[base+l] = nf
	s.divMask[v] |= 1 << uint(l)
}

// markAll marks node v2 dirty for every lane in m — one touch, one
// position lookup and one worklist update for the whole lane set. The
// per-lane semantics match the old scalar mark exactly.
func (s *LaneSweep) markAll(m uint64, v2, p, wi int, wptr *uint64) {
	s.touch(v2)
	p2 := s.e.dt.ord[v2]
	if p2 > p {
		add := m &^ s.curMask[v2]
		if add == 0 {
			return
		}
		s.curMask[v2] |= add
		if p2>>6 == wi {
			*wptr |= 1 << (uint(p2) & 63)
		} else {
			s.posDirty.Set(p2)
		}
		return
	}
	add := m &^ s.nxtMask[v2]
	if add == 0 {
		return
	}
	s.nxtMask[v2] |= add
	s.nxtDirty.Set(p2)
	if p2 < s.nxtMin {
		s.nxtMin = p2
	}
	s.pending |= add
}

// relaxAll relaxes node v for every lane in m in one visit. This is where
// the lanes actually share work: preds whose value no lane diverged on
// contribute one shared base load and one shared max per pred to every
// lane, the successor marks collapse into one masked update per succ, and
// only the (rare) lanes with ops at v or diverged preds pay a per-lane
// scan. Per-lane results are byte-identical to the scalar relaxation:
// lane values never interact, only their traversal is fused.
func (s *LaneSweep) relaxAll(m uint64, v, p, wi int, wptr *uint64) {
	s.laneRelax += int64(bits.OnesCount64(m))
	e := s.e
	ns := &s.nsBuf
	for mm := m; mm != 0; mm &= mm - 1 {
		ns[bits.TrailingZeros64(mm)] = 0
	}
	inh := s.inHead[v]
	opM := s.inOpM[v] & m
	for _, h := range e.g.pred[v] {
		u := int(h.to)
		var du uint64
		if s.stamp[u] == s.round {
			du = s.divMask[u]
		}
		if plain := m &^ (du | opM); plain != 0 {
			// Shared fast path: one load, one candidate for every lane
			// that sees the base value of u unmodified.
			c := e.fin[u] + h.w
			for mm := plain; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				if c > ns[l] {
					ns[l] = c
				}
			}
		}
		for mm := m & (du | opM); mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			if opM>>uint(l)&1 != 0 && s.hasInOp(l, inh, u) {
				continue // an op on this pred suppresses the base edge
			}
			var f int64
			if du>>uint(l)&1 != 0 {
				f = s.finSlab[int(s.slot[u])*s.stride+l]
			} else {
				f = e.fin[u]
			}
			if c := f + h.w; c > ns[l] {
				ns[l] = c
			}
		}
	}
	for oi := inh; oi >= 0; oi = s.inOps[oi].next {
		op := &s.inOps[oi]
		l := int(op.lane)
		if op.kind != laneOpAdd || m>>uint(l)&1 == 0 {
			continue
		}
		if c := s.effFin(l, int(op.other)) + op.w; c > ns[l] {
			ns[l] = c
		}
	}
	durM := s.durOpM[v] & m
	baseDur := e.dur[v]
	div := s.divMask[v]
	slotBase := -1
	if si := s.slot[v]; si >= 0 {
		slotBase = int(si) * s.stride
	}
	var changed uint64
	for mm := m; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		d := baseDur
		if durM>>uint(l)&1 != 0 {
			d = s.effDur(l, v)
		}
		nf := ns[l] + d
		var cs, cf int64
		if div>>uint(l)&1 != 0 {
			cs, cf = s.startSlab[slotBase+l], s.finSlab[slotBase+l]
		} else {
			cs, cf = e.start[v], e.fin[v]
		}
		if ns[l] == cs && nf == cf {
			continue
		}
		s.writeVals(l, v, ns[l], nf)
		changed |= 1 << uint(l)
	}
	if changed == 0 {
		return
	}
	for _, h := range e.g.succ[v] {
		s.markAll(changed, int(h.to), p, wi, wptr)
	}
	for oi := s.outHead[v]; oi >= 0; oi = s.outOps[oi].next {
		op := &s.outOps[oi]
		if changed>>uint(op.lane)&1 != 0 {
			s.markAll(1<<uint(op.lane), int(op.other), p, wi, wptr)
		}
	}
}

// Run relaxes every live lane to its fixed point (or marks it
// infeasible). Call once per round, after all ops are recorded.
func (s *LaneSweep) Run() {
	n := s.e.g.N()
	for {
		var participated uint64
		pd := s.posDirty
		for wi := s.minPos >> 6; wi < len(pd); wi++ {
			w := pd[wi]
			if w == 0 {
				continue
			}
			pd[wi] = 0
			for w != 0 {
				p := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				v := s.e.dt.pos[p]
				m := s.curMask[v] & s.alive
				s.curMask[v] = 0
				if m == 0 {
					continue
				}
				participated |= m
				s.sweepNodes++
				s.relaxAll(m, v, p, wi, &w)
			}
		}
		for pm := participated; pm != 0; pm &= pm - 1 {
			s.passes[bits.TrailingZeros64(pm)]++
		}
		s.passSum += int64(bits.OnesCount64(participated))
		if s.pending&s.alive == 0 {
			return
		}
		// A lane still marking nodes after its pass budget cannot be
		// acyclic (see the type comment); declare it infeasible.
		for pm := s.pending & s.alive; pm != 0; pm &= pm - 1 {
			l := bits.TrailingZeros64(pm)
			if s.passes[l] >= s.backAdds[l]+2 {
				s.infeas |= 1 << uint(l)
				s.alive &^= 1 << uint(l)
				s.killed++
			}
		}
		if s.pending&s.alive == 0 {
			return
		}
		s.posDirty, s.nxtDirty = s.nxtDirty, s.posDirty
		s.curMask, s.nxtMask = s.nxtMask, s.curMask
		s.minPos, s.nxtMin = s.nxtMin, n
		s.pending = 0
	}
}

// Feasible reports whether lane l's effective graph proved acyclic. Only
// meaningful after Run, for lanes that were not disabled.
func (s *LaneSweep) Feasible(l int) bool { return s.infeas>>uint(l)&1 == 0 }

// Start returns lane l's effective start time of node v after Run.
func (s *LaneSweep) Start(l, v int) int64 {
	if s.stamp[v] == s.round && s.divMask[v]>>uint(l)&1 != 0 {
		return s.startSlab[int(s.slot[v])*s.stride+l]
	}
	return s.e.start[v]
}

// Fin returns lane l's effective finish time of node v after Run.
func (s *LaneSweep) Fin(l, v int) int64 {
	if s.stamp[v] == s.round && s.divMask[v]>>uint(l)&1 != 0 {
		return s.finSlab[int(s.slot[v])*s.stride+l]
	}
	return s.e.fin[v]
}

// Makespan returns lane l's effective makespan after Run. When the base
// argmax node diverged in this lane its finish may have shrunk, so the
// true maximum needs a full rescan; otherwise the base maximum plus the
// lane's diverged slab suffices.
func (s *LaneSweep) Makespan(l int) int64 {
	mn := int(s.e.maxNode)
	if s.stamp[mn] == s.round && s.divMask[mn]>>uint(l)&1 != 0 {
		var mk int64
		for v := 0; v < s.e.g.N(); v++ {
			if f := s.Fin(l, v); f > mk {
				mk = f
			}
		}
		return mk
	}
	mk := s.e.maxFin
	for i, v := range s.slabNodes {
		if s.divMask[v]>>uint(l)&1 != 0 {
			if f := s.finSlab[i*s.stride+l]; f > mk {
				mk = f
			}
		}
	}
	return mk
}

// Counters returns the cumulative sweep telemetry: distinct (node, pass)
// visits and per-lane relaxations. Their ratio is the sharing factor of
// the sweep (how many lanes each visited node served on average).
func (s *LaneSweep) Counters() (sweepNodes, laneRelax int64) {
	return s.sweepNodes, s.laneRelax
}

// Profile returns extra diagnostics: summed per-lane pass counts and how
// many lanes the pass-budget rule killed as cyclic.
func (s *LaneSweep) Profile() (passSum, killed int64) { return s.passSum, s.killed }
