package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// WriteReport renders every metric of the registry as aligned plain text,
// sorted by name: counters first, then gauges, then histograms with their
// bucket breakdowns. Output is deterministic.
func WriteReport(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	width := 0
	for _, n := range r.CounterNames() {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range r.GaugeNames() {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, name := range r.CounterNames() {
		fmt.Fprintf(bw, "%-*s %15d\n", width+2, name, r.counters[name].Value())
	}
	for _, name := range r.GaugeNames() {
		fmt.Fprintf(bw, "%-*s %15.3f\n", width+2, name, r.gauges[name].Value())
	}
	for _, name := range r.HistogramNames() {
		h := r.hists[name]
		fmt.Fprintf(bw, "%s  n=%d mean=%.1f\n", name, h.Count(), h.Mean())
		lo := "-inf"
		for i, b := range h.bounds {
			if h.counts[i] > 0 {
				fmt.Fprintf(bw, "  (%s, %d]: %d\n", lo, b, h.counts[i])
			}
			lo = fmt.Sprint(b)
		}
		if over := h.counts[len(h.bounds)]; over > 0 {
			fmt.Fprintf(bw, "  (%s, +inf): %d\n", lo, over)
		}
	}
	return bw.Flush()
}
