package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// A pass is the result of measuring one workload once: the values to
// report and how many whole queries were attempted and failed.
type pass struct {
	values            map[string]float64
	attempted, failed int
}

// setupRounds is how often a run builds its inputs and warms up; setup_s is
// the median round. A round is only two queries long, so single rounds
// differ by ±15 % on the sandbox; the median of five is steady to about ±6 %.
const setupRounds = 5

// warmups is the number of untimed queries after building inputs. The first
// query of a process allocates about twice the steady amount while the verbs
// buffer pool fills; the second runs at the steady amount.
const warmups = 2

// setUp builds the workload's inputs and runs the warm-up queries.
func setUp(w workload, seed int64, rec *recorder) (query, error) {
	q, err := w.prepare(rec)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	for i := 0; i < warmups; i++ {
		if _, err := q(seed, 0, nil); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	return q, nil
}

// reps is what a closed loop of whole queries measured: host wall time and
// bytes allocated per successful query, and the first query's outcome.
type reps struct {
	wallMS, allocMB []float64
	first           *outcome
	peakHeapMB      float64
	attempted       int
	failed          int
}

// runReps runs whole queries one at a time, a collection between them and
// outside the timed window, until minReps queries have run and the budget is
// spent. Every query must reproduce the first one's virtual clock and event
// count exactly; one that does not counts as failed, as does one that errors.
func runReps(q query, seed int64, budget time.Duration, minReps int, rec *recorder) *reps {
	r := &reps{}
	var m0, m1 runtime.MemStats
	for start := time.Now(); r.attempted < minReps || time.Since(start) < budget; {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		o, err := q(seed, 0, rec)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		r.attempted++
		if heap := float64(m1.HeapInuse) / 1e6; heap > r.peakHeapMB {
			r.peakHeapMB = heap
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "query %d failed: %v\n", r.attempted, err)
			r.failed++
			continue
		case r.first == nil:
			r.first = o
		case o.virtResponse != r.first.virtResponse || o.virtSetup != r.first.virtSetup || o.events != r.first.events:
			fmt.Fprintf(os.Stderr, "query %d is not deterministic: virtual response %v, set-up %v, %d events; first query had %v, %v, %d\n",
				r.attempted, o.virtResponse, o.virtSetup, o.events,
				r.first.virtResponse, r.first.virtSetup, r.first.events)
			r.failed++
			continue
		}
		r.wallMS = append(r.wallMS, float64(wall)/1e6)
		r.allocMB = append(r.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	return r
}

// measureEndToEnd is the untraced pass: set up setupRounds times, then time
// whole queries for the budget.
func measureEndToEnd(w workload, seed int64, budget time.Duration, minReps int) (*pass, error) {
	var q query
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if q, err = setUp(w, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "%s: set-up rounds %.3f s\n", w.name, setups)
	r := runReps(q, seed, budget, minReps, nil)
	fmt.Fprintf(os.Stderr, "%s: wall ms over %d queries: min %.1f, quartiles %.1f %.1f %.1f, max %.1f\n", w.name, len(r.wallMS),
		quantile(r.wallMS, 0), quantile(r.wallMS, 0.25), median(r.wallMS), quantile(r.wallMS, 0.75), quantile(r.wallMS, 1))
	p := &pass{attempted: r.attempted, failed: r.failed, values: map[string]float64{
		"setup_s":            median(setups),
		"wall_ms_per_query":  fastestOf(r.wallMS),
		"alloc_mb_per_query": mean(r.allocMB),
	}}
	if r.first != nil {
		p.values["virt_response_us"] = float64(r.first.virtResponse) / 1e3
		p.values["virt_cold_ms"] = float64(r.first.virtSetup+r.first.virtResponse) / 1e6
	}
	return p, nil
}

// fastestOf is the statistic of wall_ms_per_query. Every query of a run does
// the same work, so what differs between them is interference, which only
// ever adds time and on this sandbox arrives in phases of tens of seconds:
// over eight runs of a workload the fastest query spread 1–19 % where the
// median spread 2–37 %.
func fastestOf(v []float64) float64 { return quantile(v, 0) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
