package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program. It
// is switched on for traced passes only; while off, begin and end cost one
// branch. Spans stay in memory and are written out when the run ends.
type tracer struct {
	on    bool // toggled between passes, never while a pass runs
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one recorded span. Parent is 0 for a root; Req is shared by
// every span of one request (a query, an ingest) or one dataset.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is a handle on an open span; the zero span (tracing off) ignores
// every call.
type span struct {
	t   *tracer
	id  int64
	req int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(parent, req int64, name string) span {
	if !t.on {
		return span{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return span{t: t, id: id, req: req}
}

// root opens a span with no parent.
func (t *tracer) root(name string, req int64) span { return t.open(0, req, name) }

// child opens a span caused by s, in the same request.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(s.id, s.req, name)
}

// childReq opens a span caused by s that starts a new request.
func (s span) childReq(name string, req int64) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(s.id, req, name)
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// spanTotals is the summed duration and self time of every span of one
// name, and how many there were.
type spanTotals struct {
	Dur, Self time.Duration
	N         int
}

// totals derives each span's self time (its duration minus the union of
// its children's intervals) and sums by name.
func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]spanRec)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(s, kids[s.ID])
		tot := out[s.Name]
		tot.Dur += time.Duration(dur)
		tot.Self += time.Duration(self)
		tot.N++
		out[s.Name] = tot
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if k.End >= 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	curHi = -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// write dumps every span as JSON.
func (t *tracer) write(path string, stamp map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"stamp": stamp, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// recorder accumulates the work counters the program returns and the
// latency samples of individual operations, from any goroutine. It runs in
// both modes: counters are deterministic and cheap next to the calls they
// count.
type recorder struct {
	mu      sync.Mutex
	counts  map[string]float64
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{counts: make(map[string]float64), samples: make(map[string][]float64)}
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

func (r *recorder) samplesOf(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// addSearch records the pair counters of one search call under prefix.
func (r *recorder) addSearch(prefix string, st SearchStats) {
	r.mu.Lock()
	r.counts[prefix+".pairs"] += float64(st.Pairs)
	r.counts[prefix+".lb_pruned"] += float64(st.LBPruned)
	r.counts[prefix+".pair_lb"] += float64(st.PairLB)
	r.counts[prefix+".full_dist"] += float64(st.FullDist)
	r.mu.Unlock()
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
