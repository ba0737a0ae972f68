package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory until the run ends. A span is one call
// into a layer's public function, made by the benchmark's own code; spans
// of one epoch or job share a trace id.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: root of its trace
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(trace, name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// selfTimes sums, per span name, the seconds each span of the accepted
// traces spent outside its children: its duration minus the union of its
// children's intervals (children of one span may overlap when they run
// on parallel workers).
func (t *tracer) selfTimes(keep func(trace string) bool) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if !keep(s.Trace) {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End)).Seconds()
	}
	return out
}

// covered is the length of [lo, hi] that the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// epochTrace is the trace id of field epoch e.
func epochTrace(e int) string { return fmt.Sprintf("epoch-%d", e) }

// steadyTraces accepts the traces of epochs 1..k.
func steadyTraces(k int) func(string) bool {
	ok := make(map[string]bool, k)
	for e := 1; e <= k; e++ {
		ok[epochTrace(e)] = true
	}
	return func(id string) bool { return ok[id] }
}

// only accepts one trace id.
func only(id string) func(string) bool { return func(t string) bool { return t == id } }
