package main

import (
	"math"
	"math/rand"
	"time"
)

// The benchmark's host shares its cores with other machines' work, and its
// speed drifts by tens of percent over minutes while it stays steady for
// seconds. Every duration the benchmark reports is therefore scaled to the
// speed of a reference host: it is multiplied by kernelRefMS / K, where K
// is the geometric mean of the median times of two fixed kernels running
// no repository code — a pointer chase through 256 KB and a chain of
// integer multiply-adds — timed a few times after every search run and, on
// serve-mix, every samplePeriod while the clients pause, so that their
// samples see the same host as the work they scale. Of the kernels tried
// (chases through 256 KB, 1, 4 and 16 MB, the multiply-add chain, a map
// fill, a linked-list allocation), this pair followed the workloads' drift
// best across ten seeds without allocating, so the scale does not depend
// on the heap of the program under test.

// kernelRefMS is K on the host the benchmark was calibrated on (2 vCPUs of
// an Intel Xeon at GOMAXPROCS=2).
const kernelRefMS = 0.25

// calibrationSamples kernel runs are timed before a measured window, so
// that wall budgets can be scaled from its start; samplesPerRun are timed
// after each search run and, on serve-mix, every samplePeriod.
const (
	calibrationSamples = 60
	samplesPerRun      = 5
	samplePeriod       = 250 * time.Millisecond
)

var chase = func() []int32 {
	p := rand.New(rand.NewSource(1)).Perm(1 << 16)
	out := make([]int32, len(p))
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}()

var kernelSink uint64

func chaseKernel() {
	c := int32(0)
	for i := 0; i < 50_000; i++ {
		c = chase[c]
	}
	kernelSink += uint64(c)
}

func chainKernel() {
	x := uint64(1)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	kernelSink += x
}

// hostSpeed accumulates kernel timings and the wall time spent on them.
type hostSpeed struct {
	chaseMS, chainMS []float64
	spent            time.Duration
}

// sample times n runs of each kernel.
func (h *hostSpeed) sample(n int) {
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		chaseKernel()
		t1 := time.Now()
		chainKernel()
		h.chaseMS = append(h.chaseMS, ms(t1.Sub(t0)))
		h.chainMS = append(h.chainMS, ms(time.Since(t1)))
	}
	h.spent += time.Since(start)
}

// kernelMS is K, the geometric mean of the kernels' median times.
func (h *hostSpeed) kernelMS() float64 {
	return math.Sqrt(median(h.chaseMS) * median(h.chainMS))
}

// scale converts a raw duration in any unit to reference-host speed.
func (h *hostSpeed) scale() float64 { return kernelRefMS / h.kernelMS() }

// normalize scales every duration (s, ms, us) and rate (1/s) of the
// report to reference-host speed, then records the kernel time.
func (h *hostSpeed) normalize(r *report) {
	f := h.scale()
	for _, set := range []metrics{r.metrics, r.extra} {
		for name, m := range set {
			switch m.Unit {
			case "s", "ms", "us":
				m.Value *= f
			case "1/s":
				m.Value /= f
			}
			set[name] = m
		}
	}
	r.extra.set("host.kernel_ms", h.kernelMS(), "ms")
	r.extra.set("samples.kernel", float64(len(h.chaseMS)), "count")
}
