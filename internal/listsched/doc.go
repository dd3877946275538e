// Package listsched implements deterministic priority list scheduling over
// the reconfigurable architecture model. It is the decode step of the
// genetic-algorithm baseline (Ben Chehida & Auguin): given a spatial HW/SW
// assignment, it derives a temporal partitioning by greedy capacity
// clustering in priority order and a total software order by decreasing
// upward rank, producing a complete mapping the evaluator can time.
//
// A Decoder is built once per (application, architecture) pair and holds
// the rank order, which depends only on the application; each decode then
// costs one pass over the tasks. BuildInto decodes into a caller-owned
// mapping, so the GA, the list seeder and the exhaustive sweep reuse one
// mapping across candidates instead of allocating one per decode.
package listsched
