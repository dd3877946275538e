// Package ga reimplements the genetic-algorithm baseline the paper compares
// against (Ben Chehida & Auguin, CASES 2002): the HW/SW spatial
// partitioning is explored by a GA, and each individual is decoded by a
// deterministic greedy temporal clustering followed by list scheduling —
// one temporal partitioning and one schedule per spatial solution, in
// contrast with the paper's simultaneous exploration of all three
// subproblems. The paper reports a population of 300 and a ~4 minute
// runtime on the motion-detection benchmark versus <10 s for the annealer.
//
// Each run builds one list-scheduling decoder for its (application,
// architecture) pair, so the rank order is computed once, not per
// individual, and reuses one scratch mapping and two population buffers
// across generations.
//
// Individuals are scored through the shared objective layer
// (internal/objective), so the GA and the annealer assign the same cost to
// the same mapping — the property the cross-strategy regression tests pin.
package ga
