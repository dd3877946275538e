// Package fleet scales the dsed job service horizontally: a
// Coordinator fronts N dsed workers, routing every job by consistent
// hash of its result-cache fingerprint (serve.RingKey) so the same
// (app, arch, objective, strategy, seed, budget) job always lands on
// the worker whose memoized result cache is warm for it.
//
// The coordinator's job API is a serve.Server — the very /v1 job
// surface a single dsed serves (submit, list, status, stream, cancel,
// run) — with a routed executor in place of the local engine: each job
// waits until the ring has an owner for its key, then streams from that
// owner's POST /v1/run, every run event forwarded into the
// coordinator's job record. dse.Client, dsexplore -server and
// cmd/dseload therefore work unchanged against either target. A cancel
// closes the stream, which cancels the worker's computation.
//
// Membership is heartbeat-based. Workers join with POST /v1/register
// (driven by the worker-side Agent), stay live with periodic
// POST /v1/heartbeat, and leave gracefully with POST /v1/deregister: a
// draining worker is off the ring immediately — new jobs route to the
// survivors — while its in-flight streams finish in place. A worker
// silent past the heartbeat timeout is declared dead and its streams
// are cut. A job that loses its worker re-routes to the new owner of its
// key and skips the run events it already forwarded; the determinism
// invariant (every result a pure function of the job key, runs emitted
// in run order) guarantees the recomputation is bit-identical, so no
// event repeats.
//
// The consistent-hash Ring guarantees that adding or removing one of N
// workers remaps only ~1/N of the key space, keeping every other
// worker's cache warm through membership churn; the property tests in
// ring_test.go pin both the balance and the minimal-disruption bounds,
// and fleet_test.go proves the kill/drain behavior under fault
// injection.
package fleet
