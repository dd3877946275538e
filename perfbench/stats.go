package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample. xs is not modified. A
// sample may hold +Inf for an outcome that never happened (a run that
// never reached its target); the quantile is +Inf when it falls among
// them.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values; NaN when xs is empty
// or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0 (a counter the workload never
// increments).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// samples collects named timing/quantity samples, keyed by group (a
// scenario name for search workloads).
type samples map[string][]float64

func (s samples) add(group string, v float64) { s[group] = append(s[group], v) }

// medianGeo takes the median within each group, then the geometric mean
// over groups, which is how every search metric is folded across a
// workload's scenarios.
func (s samples) medianGeo(groups []string) float64 {
	qs := make([]float64, 0, len(groups))
	for _, g := range groups {
		qs = append(qs, median(s[g]))
	}
	return geomean(qs)
}

// tailGeo is the tail of a workload's runs: every sample is divided by its
// group's median, the highest quantile up to 0.99 that has at least ten
// of these ratios beyond it (the median below twenty) is taken over all
// groups pooled, and the result is scaled by medianGeo. With one group it
// is that quantile of the group itself.
func (s samples) tailGeo(groups []string) float64 {
	var rel []float64
	for _, g := range groups {
		m := median(s[g])
		for _, v := range s[g] {
			rel = append(rel, v/m)
		}
	}
	q := math.Max(0.5, math.Min(0.99, 1-10/float64(len(rel))))
	return s.medianGeo(groups) * quantile(rel, q)
}

func (s samples) count(groups []string) int {
	n := 0
	for _, g := range groups {
		n += len(s[g])
	}
	return n
}
