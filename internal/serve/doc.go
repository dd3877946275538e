// Package serve turns the exploration library into a long-running
// design-space-exploration service: an HTTP API over the parallel
// multi-run engine with asynchronous job submission, NDJSON progress
// streaming, context-propagated cancellation, and the sharded memoized
// result cache in front of every run — so resubmitting an identical
// (application, architecture, objective, strategy, seed, budget) job is
// answered from memory, bit-identically, in microseconds.
//
// The API surface (see docs/CLI.md for the dsed command wrapping it):
//
//	POST   /v1/jobs            submit a job (scenario name or inline models); 202 + job id
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status, and the summary once finished
//	GET    /v1/jobs/{id}/stream  NDJSON: buffered per-run events, then live ones, then the summary
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/run             synchronous streaming run: NDJSON events while the
//	                           job computes in-request; disconnecting cancels it
//	GET    /v1/scenarios       the scenario corpus
//	GET    /v1/cache           result-cache counters
//	GET    /v1/metrics         Prometheus text exposition
//	GET    /v1/healthz         liveness
//
// Async jobs outlive their submitting connection and are cancelled only
// through DELETE. The synchronous /v1/run path ties the computation to
// the request context instead: a client that disconnects mid-stream
// cancels the run within one step, and the truncated runs are never
// cached.
//
// The Server owns the job table and the routes; an Executor owns the
// computation. The default executor runs the engine in-process; the
// fleet coordinator is the same Server with a routed executor.
package serve
