package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanNames is the fixed set of span names, in ladder order: a workload
// holds scenarios (search) or clients (serve), a scenario holds runs, a run
// holds search.step or core.step spans, and a client holds requests. The
// per-layer self-time metrics are derived from exactly these names, so every
// traced run reports the same metric set.
var spanNames = []string{"workload", "scenario", "run", "search.step", "core.step", "client", "request"}

// span is one timed interval. Spans of one top-level operation (a run or a
// request) share a trace id.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  int    `json:"trace"`
	Start  int64  `json:"startNs"` // since the tracer's origin
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory. A nil *tracer is the untraced mode: every
// method is a no-op, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
// trace 0 starts a new trace id equal to the span's own id.
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: trace, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// traceOf returns the trace id of span id.
func (t *tracer) traceOf(id int) int {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Trace
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children (children of one parent may
// overlap — two serve clients — so their union is subtracted).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - unionLen(kids[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// unionLen is the length of the union of the intervals clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfShares reports each span name's self time as a percentage of all
// self time, one metric per name in spanNames (0 for names the workload
// never opens).
func (t *tracer) selfShares(m metrics) {
	self := t.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, n := range spanNames {
		m.set("self_pct."+n, 100*ratio(float64(self[n]), float64(total)), "%")
	}
}

// write dumps the spans as one JSON document into dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
