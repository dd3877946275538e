package listsched

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sched"
)

// Ranks computes the upward rank of every task: the longest path (in
// software execution time) from the task to any sink, inclusive. Upward
// rank is the classical list-scheduling priority — scheduling in decreasing
// rank order is always precedence-compatible.
func Ranks(app *model.App) []model.Time {
	n := app.N()
	rank := make([]model.Time, n)
	g := app.Precedence()
	order, err := graph.Topo(g)
	if err != nil {
		// Validated applications are acyclic; an invalid one gets zero
		// ranks and fails later with a clear evaluation error.
		return rank
	}
	// A longest-path fixed point: any topological order, walked backwards,
	// sees every successor's final rank first.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var best model.Time
		g.EachSucc(v, func(s int, _ int64) {
			if rank[s] > best {
				best = rank[s]
			}
		})
		sw := app.Tasks[v].SW
		if sw <= 0 {
			sw = app.Tasks[v].BestHWTime()
		}
		rank[v] = best + sw
	}
	return rank
}

// Decoder turns spatial assignments of one (application, architecture)
// pair into complete mappings. Everything that depends only on the pair —
// the decreasing-rank task order — is computed once by NewDecoder, so a
// search that decodes thousands of candidates pays for it once. A Decoder
// is immutable after construction and safe for concurrent use; the
// mappings it decodes into are the caller's.
type Decoder struct {
	app   *model.App
	arch  *model.Arch
	order []int // task ids by decreasing upward rank, ids ascending among equals
}

// NewDecoder ranks the application's tasks once. It never fails: the
// per-assignment checks stay in BuildInto.
func NewDecoder(app *model.App, arch *model.Arch) *Decoder {
	rank := Ranks(app)
	order := make([]int, app.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rank[order[a]], rank[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	return &Decoder{app: app, arch: arch, order: order}
}

// Order returns the task ids by decreasing upward rank, ids ascending
// among equal ranks — the order every decode visits the tasks in. The
// slice is shared; callers must not modify it.
func (d *Decoder) Order() []int { return d.order }

// Build decodes a spatial assignment into a fresh mapping (see BuildInto),
// for callers that keep the result.
func (d *Decoder) Build(hw []bool, impl []int) (*sched.Mapping, error) {
	m := &sched.Mapping{}
	if err := d.BuildInto(m, hw, impl); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildInto turns a spatial assignment into a complete mapping, written
// into m:
//
//   - hw[t] requests hardware for task t (forced to software when the task
//     has no implementation that fits the device, and to hardware when it
//     has no software time);
//   - impl[t] selects the implementation (clamped to the valid range; pass
//     nil for smallest-area defaults);
//   - software tasks are ordered by decreasing upward rank;
//   - hardware tasks are packed into contexts in decreasing-rank order,
//     opening a new context whenever the capacity would overflow (the
//     greedy temporal clustering of [6]).
//
// Every field a previous decode wrote is reset and m's slices are reused
// where their capacity allows, so a search loop decoding into one scratch
// mapping allocates only when a decode opens more contexts than the one
// before it. m must not share storage with a mapping the caller still
// reads. On error m's contents are unspecified.
func (d *Decoder) BuildInto(m *sched.Mapping, hw []bool, impl []int) error {
	app, arch := d.app, d.arch
	if len(arch.Processors) == 0 {
		return fmt.Errorf("listsched: architecture has no processor")
	}
	n := app.N()
	if len(hw) != n {
		return fmt.Errorf("listsched: assignment sized %d for %d tasks", len(hw), n)
	}
	// Context slots below prev held this mapping's own contexts and are
	// reused; slots re-exposed beyond it may alias a live one (see
	// sched.Mapping.CopyInto) and start empty.
	prev := 0
	if len(arch.RCs) > 0 && len(m.Contexts) > 0 {
		prev = len(m.Contexts[0])
	}
	reset(m, n, len(arch.Processors), len(arch.RCs))
	used := 0 // CLBs of the open (last) context

	for _, t := range d.order {
		task := &app.Tasks[t]
		wantHW := hw[t]
		if !task.CanHW() {
			wantHW = false
		}
		if !task.CanSW() {
			wantHW = true
		}
		if wantHW && len(arch.RCs) == 0 {
			if !task.CanSW() {
				return fmt.Errorf("listsched: task %d is hardware-only but there is no RC", t)
			}
			wantHW = false
		}
		if wantHW {
			rc := &arch.RCs[0]
			im := clampImpl(task, impl, t)
			if task.HW[im].CLBs > rc.NCLB {
				im = smallest(task)
			}
			need := task.HW[im].CLBs
			if need > rc.NCLB {
				// Does not fit the device at all: fall back to software.
				if !task.CanSW() {
					return fmt.Errorf("listsched: task %d fits neither side", t)
				}
				wantHW = false
			} else {
				cs := m.Contexts[0]
				if len(cs) == 0 || used+need > rc.NCLB {
					cs = openContext(cs, prev)
					m.Contexts[0] = cs
					used = 0
				}
				ci := len(cs) - 1
				cs[ci].Tasks = append(cs[ci].Tasks, t)
				used += need
				m.Assign[t] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: ci}
				m.Impl[t] = im
			}
		}
		if !wantHW {
			m.Assign[t] = sched.Placement{Kind: model.KindProcessor, Res: 0}
			m.Impl[t] = 0
			m.SWOrders[0] = append(m.SWOrders[0], t)
		}
	}
	return nil
}

// reset sizes m for n tasks, nProc processors and nRC RCs, truncating
// every software order and context list to length 0.
func reset(m *sched.Mapping, n, nProc, nRC int) {
	m.Assign = resize(m.Assign, n)
	m.Impl = resize(m.Impl, n)
	m.SWOrders = resize(m.SWOrders, nProc)
	for p := range m.SWOrders {
		m.SWOrders[p] = m.SWOrders[p][:0]
	}
	m.Contexts = resize(m.Contexts, nRC)
	for r := range m.Contexts {
		m.Contexts[r] = m.Contexts[r][:0]
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// openContext appends an empty context to cs, reusing the slot's task
// storage when the slot lay below prev, the list's length before this
// decode.
func openContext(cs []sched.Context, prev int) []sched.Context {
	ci := len(cs)
	if ci == cap(cs) {
		return append(cs, sched.Context{})
	}
	cs = cs[:ci+1]
	if ci < prev {
		cs[ci].Tasks = cs[ci].Tasks[:0]
	} else {
		cs[ci].Tasks = nil
	}
	return cs
}

func clampImpl(task *model.Task, impl []int, t int) int {
	if impl == nil {
		return smallest(task)
	}
	im := impl[t]
	if im < 0 || im >= len(task.HW) {
		return smallest(task)
	}
	return im
}

func smallest(task *model.Task) int {
	best := 0
	for i, im := range task.HW {
		if im.CLBs < task.HW[best].CLBs {
			best = i
		}
	}
	return best
}
