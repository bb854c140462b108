package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples is a list of timings in milliseconds. A failed or refused
// operation is recorded as +Inf, so it misses every latency limit.
type samples []float64

// quantile is the nearest-rank q-quantile (0 for an empty list).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// passQuantile is where a statistic computed per pass is read across the
// passes of a run, counted from the best end. Each pass's own throughput
// and quantiles keep what the program pays inside it: collections,
// allocation, contention between callers. Reading the pass a quarter of
// the way from the best ignores host slow phases that cover less than
// three quarters of the run. Unlike the best pass, its expected value does
// not fall when a faster program fits more passes into the budget.
const passQuantile = 0.25

// acrossPasses reads per-pass values at passQuantile from the best end:
// from the low end for times, from the high end for throughputs.
func acrossPasses(v samples, higherBetter bool) float64 {
	if higherBetter {
		return v.quantile(1 - passQuantile)
	}
	return v.quantile(passQuantile)
}

// passStats collects, per pass, the throughput and the latency quantiles
// of the pass's own operations.
type passStats struct {
	opsPerS, p50, p99 samples
	n                 int // operations in the last pass
}

// add records one pass: its operations' times in ms (+Inf for a failed
// one), how many of them succeeded, and the pass's wall.
func (p *passStats) add(lat samples, done int, wall time.Duration) {
	p.opsPerS = append(p.opsPerS, float64(done)/wall.Seconds())
	p.p50 = append(p.p50, lat.quantile(0.5))
	p.p99 = append(p.p99, lat.quantile(0.99))
	p.n = len(lat)
}

// metrics returns ops_per_s, op_p50_ms and op_p99_ms, each read across
// the passes. n is the number of operations behind one pass's value.
func (p *passStats) metrics() []metric {
	return []metric{
		{name: "ops_per_s", unit: "1/s", value: acrossPasses(p.opsPerS, true), n: p.n},
		{name: "op_p50_ms", unit: "ms", value: acrossPasses(p.p50, false), n: p.n},
		{name: "op_p99_ms", unit: "ms", value: acrossPasses(p.p99, false), n: p.n},
	}
}

// endToEnd assembles a workload's end-to-end metrics: its set-up times,
// retained heap, per-pass statistics, and the compiled circuits' depths and
// gate counts.
func endToEnd(setups []time.Duration, heap *heapPeak, stats *passStats, depth, gates samples) []metric {
	out := []metric{
		{name: "setup_s", unit: "s", value: medianSec(setups), n: len(setups)},
		{name: "retained_heap_mb", unit: "MB", value: heap.mb(), n: heap.n},
	}
	out = append(out, stats.metrics()...)
	return append(out,
		metric{name: "depth_mean", unit: "count", value: depth.mean(), exact: true},
		metric{name: "gates_mean", unit: "count", value: gates.mean(), exact: true},
	)
}

// median of a list of durations, in seconds.
func medianSec(ds []time.Duration) float64 {
	s := make(samples, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return s.quantile(0.5)
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// heapPeak tracks the largest retained Go heap over the samples taken: the
// bytes still reachable after forced collections. Samples are taken at
// quiescent points between timed work, where the value does not depend on
// when the runtime's own collections happened to run.
type heapPeak struct {
	max uint64
	n   int // samples taken
}

func (h *heapPeak) sample() {
	// The second collection empties what sync.Pools kept through the
	// first: pooled buffers are reusable scratch, not retained state.
	runtime.GC()
	runtime.GC()
	h.n++
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.max {
		h.max = s[0].Value.Uint64()
	}
}

func (h *heapPeak) mb() float64 { return float64(h.max) / (1 << 20) }

// meanBy accumulates per-key means (per preset, per class).
type meanBy map[string]*[2]float64

func (m meanBy) add(key string, v float64) {
	a := m[key]
	if a == nil {
		a = new([2]float64)
		m[key] = a
	}
	a[0] += v
	a[1]++
}

func (m meanBy) mean(key string) float64 {
	if a := m[key]; a != nil && a[1] > 0 {
		return a[0] / a[1]
	}
	return 0
}
