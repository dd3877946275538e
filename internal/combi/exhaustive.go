package combi

import (
	"fmt"
	"math/big"

	"repro/internal/listsched"
	"repro/internal/model"
	"repro/internal/sched"
)

// Exhaustive enumerates complete mappings of a small instance: every HW/SW
// bipartition of the task set (2^n spatial solutions), each decoded into a
// full mapping — software order, temporal partitioning into contexts,
// smallest-area implementation choice — by the deterministic list scheduler
// of the GA baseline. It is the brute-force member of the unified strategy
// engine, and doubles as ground truth for the solution-space analysis of
// Section 5 on instances where 2^n is tractable: the heuristics can be
// scored against the true optimum over the decoded subspace.
//
// Enumeration order is the natural integer order of the bitmask (bit t set
// = task t requests hardware), so runs are deterministic and resumable.
type Exhaustive struct {
	dec  *listsched.Decoder
	n    int
	mask uint64
	hw   []bool
}

// MaxExhaustiveTasks caps the instance size: beyond this the 2^n sweep is
// no longer a sane default even for smoke runs.
const MaxExhaustiveTasks = 24

// NewExhaustive validates the instance and positions the sweep before the
// first bipartition (the all-software mask 0).
func NewExhaustive(app *model.App, arch *model.Arch) (*Exhaustive, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if app.N() > MaxExhaustiveTasks {
		return nil, fmt.Errorf("combi: exhaustive enumeration limited to %d tasks, application has %d",
			MaxExhaustiveTasks, app.N())
	}
	if len(arch.Processors) == 0 {
		return nil, fmt.Errorf("combi: exhaustive enumeration needs at least one processor")
	}
	return &Exhaustive{dec: listsched.NewDecoder(app, arch), n: app.N(), hw: make([]bool, app.N())}, nil
}

// Total returns the number of bipartitions the sweep visits (2^n).
func (x *Exhaustive) Total() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(x.n))
}

// Remaining returns the number of bipartitions not yet visited.
func (x *Exhaustive) Remaining() uint64 {
	return (uint64(1) << uint(x.n)) - x.mask
}

// Next decodes the next bipartition into a complete mapping. It returns
// ok=false when the sweep is exhausted. Masks whose decode is infeasible
// (e.g. a hardware-only task with no RC) are skipped silently — the decoder
// already forces feasibility where it can, so a skip means the instance
// itself rules the partition out.
func (x *Exhaustive) Next() (*sched.Mapping, bool) {
	for x.mask < uint64(1)<<uint(x.n) {
		m := x.mask
		x.mask++
		for t := 0; t < x.n; t++ {
			x.hw[t] = m&(uint64(1)<<uint(t)) != 0
		}
		mp, err := x.dec.Build(x.hw, nil)
		if err != nil {
			continue
		}
		return mp, true
	}
	return nil, false
}
