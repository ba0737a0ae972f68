package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// procSample is a process-wide resource reading.
type procSample struct {
	wall       time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var procMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// procDelta is what a stretch of the run cost the process.
type procDelta struct {
	wall, cpu    time.Duration
	allocBytes   uint64
	gcCPU, total float64
}

func (s procSample) until(e procSample) procDelta {
	return procDelta{
		wall:       e.wall.Sub(s.wall),
		cpu:        e.cpu - s.cpu,
		allocBytes: e.allocBytes - s.allocBytes,
		gcCPU:      e.gcCPU - s.gcCPU,
		total:      e.totalCPU - s.totalCPU,
	}
}

func (d procDelta) cpuPerWall() float64 { return d.cpu.Seconds() / d.wall.Seconds() }

func (d procDelta) gcFrac() float64 {
	if d.total <= 0 {
		return 0
	}
	return d.gcCPU / d.total
}

// setProc records the go.* and proc.* metrics for a stretch of ops
// operations.
func (r *report) setProc(d procDelta, ops int) {
	r.set("go.alloc_mb_per_op", float64(d.allocBytes)/(1<<20)/float64(max(ops, 1)))
	r.set("go.gc_cpu_frac", d.gcFrac())
	r.set("proc.cpu_per_wall", d.cpuPerWall())
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle drops the garbage of a finished phase, so the next phase's
// memory peak does not stack on it.
func settle() { runtime.GC() }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// regValues indexes a registry snapshot by series name.
func regValues(reg *obs.Registry) map[string]obs.MetricSnapshot {
	out := make(map[string]obs.MetricSnapshot)
	for _, m := range reg.Snapshot() {
		out[m.Name] = m
	}
	return out
}

// skew is max/mean of the positive values (1 when balanced, 0 for none).
func skew(xs []float64) float64 {
	var mx, total float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		mx = math.Max(mx, x)
		total += x
		n++
	}
	if n == 0 {
		return 0
	}
	return mx / (total / float64(n))
}

// familySums returns, per series of a histogram family, how much its
// sum grew from one registry snapshot to a later one.
func familySums(from, to map[string]obs.MetricSnapshot, family string) []float64 {
	var out []float64
	for name, m := range to {
		if name == family || strings.HasPrefix(name, family+"{") {
			out = append(out, m.Sum-from[name].Sum)
		}
	}
	return out
}
