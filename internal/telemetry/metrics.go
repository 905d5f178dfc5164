package telemetry

import (
	"fmt"
	"sort"
)

// Registry is a flat namespace of counters, gauges, and fixed-bucket
// histograms. Metric names are dotted paths whose trailing components key
// the metric (node, QP, operator, algorithm), e.g.
// "fabric.qp_cache_misses.node3" or "shuffle.qps_per_operator".
//
// The simulator is single-threaded, so the registry needs no locking. Hot
// paths obtain a metric handle once (at setup) and mutate it through the
// pointer; name lookup and formatting happen only off the hot path.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time float metric.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// SetMax stores v if it exceeds the current value (high-water marks).
func (g *Gauge) SetMax(v float64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket histogram of int64 observations. Bucket i
// counts observations v with v <= Bounds[i] (and v > Bounds[i-1]); the
// final bucket counts overflows beyond the last bound.
type Histogram struct {
	bounds []int64
	counts []int64
	sum    int64
	n      int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.n++
	h.sum += v
	// Buckets are few and fixed; a linear scan beats binary search at this
	// size and stays branch-predictable on the hot path.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Bounds returns the bucket upper bounds (exclusive of the overflow bucket).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// BucketCounts returns the per-bucket counts; the final entry is the
// overflow bucket.
func (h *Histogram) BucketCounts() []int64 { return h.counts }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Counter returns the named counter, creating it at zero if absent.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero if absent.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds if absent. Bounds must be strictly increasing; they are copied.
// Re-requesting an existing histogram ignores the bounds argument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not increasing", name))
			}
		}
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Value looks up a counter or gauge by name and returns its value.
func (r *Registry) Value(name string) (float64, bool) {
	if c, ok := r.counters[name]; ok {
		return float64(c.v), true
	}
	if g, ok := r.gauges[name]; ok {
		return g.v, true
	}
	return 0, false
}

// CounterValue returns the named counter's value, or 0 if absent.
func (r *Registry) CounterValue(name string) int64 {
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// CounterNames, GaugeNames, and HistogramNames return the registered names
// in sorted order, so every export is deterministic.
func (r *Registry) CounterNames() []string   { return sortedKeys(r.counters) }
func (r *Registry) GaugeNames() []string     { return sortedKeys(r.gauges) }
func (r *Registry) HistogramNames() []string { return sortedKeys(r.hists) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
