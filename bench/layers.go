package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rshuffle/internal/telemetry"
)

// traceCapacity is the telemetry ring size of the tracer-on rep, in events
// summed over shards; the largest workload emits about a million.
const traceCapacity = 1 << 21

// measureLayers is the traced pass. Half the budget goes to whole queries
// run exactly as the end-to-end pass runs them but with the harness's host
// spans recorded, the layer counters scraped and a CPU profile on; then one
// query runs with the telemetry tracer attached; then the layer probes run.
// Spans go to scratch as JSON when the pass ends.
func measureLayers(w workload, seed int64, budget time.Duration, minReps int, probeBudget time.Duration, scratch string) (*pass, error) {
	rec := newRecorder()
	q, err := setUp(w, seed, rec)
	if err != nil {
		return nil, err
	}

	profPath := filepath.Join(scratch, "cpu-"+w.name+".prof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	r := runReps(q, seed, budget/2, minReps, rec)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	p := &pass{attempted: r.attempted, failed: r.failed, values: map[string]float64{}}
	if r.first == nil {
		return p, nil
	}
	v := p.values

	// Counts of the untraced reps: deterministic, so the first rep's stand
	// for all of them.
	for k, c := range r.first.counts {
		v[k] = c
	}
	finishCounts(v)
	wall := median(r.wallMS)
	v["sim.events"] = float64(r.first.events)
	v["sim.wall_ns_per_event"] = fastestOf(r.wallMS) * 1e6 / float64(r.first.events)
	v["shuffle.virt_setup_ms"] = float64(r.first.virtSetup) / 1e6
	v["bench.samples"] = float64(len(r.wallMS))
	v["bench.wall_ms_median"] = wall
	v["bench.wall_ms_hi"] = highPercentile(r.wallMS)
	v["bench.wall_iqr_frac"] = (quantile(r.wallMS, 0.75) - quantile(r.wallMS, 0.25)) / wall
	v["bench.peak_heap_mb"] = r.peakHeapMB
	spanMetrics(rec.spans, w.genInRun, v)

	// The tracer-on rep. Attaching a tracer switches the fabric to exact
	// per-message delivery, so nothing but the tracer's own numbers is
	// taken from this rep.
	p.attempted++
	t0 := time.Now()
	o, err := q(seed, traceCapacity, nil)
	traced := float64(time.Since(t0)) / 1e6
	if err != nil {
		fmt.Fprintf(os.Stderr, "traced query failed: %v\n", err)
		p.failed++
	} else {
		v["telemetry.trace_events"] = float64(len(o.trace))
		v["telemetry.trace_overhead_frac"] = traced/wall - 1
		traceMetrics(o.trace, v)
	}

	for k, x := range runProbes(probeBudget) {
		v[k] = x
	}

	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", profPath).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := bucketTop(string(top))
	if err != nil {
		return nil, err
	}
	for k, x := range shares {
		v[k] = x
	}

	spans, err := json.Marshal(rec.spans)
	if err != nil {
		return nil, err
	}
	return p, os.WriteFile(filepath.Join(scratch, "spans-"+w.name+".json"), spans, 0o644)
}

// spanMetrics turns the recorded span tree into per-query medians. A span's
// children name it as parent; cluster.stream_wall_ms is the run span's self
// time: the run minus the transport builds inside it and, where the run
// generates its own tables, minus the standalone table generation.
func spanMetrics(spans []span, genInRun bool, v map[string]float64) {
	byName := map[string][]float64{} // per query, summed over same-named children
	perQuery := map[int]map[string]float64{}
	parentQuery := map[int]int{} // span id → enclosing query span id
	for _, s := range spans {
		ms := (s.EndUS - s.StartUS) / 1e3
		switch {
		case s.Name == "query":
			parentQuery[s.ID] = s.ID
			perQuery[s.ID] = map[string]float64{}
		case s.Parent == 0:
			byName[s.Name] = append(byName[s.Name], ms) // recorded while preparing inputs
		default:
			q := parentQuery[s.Parent]
			parentQuery[s.ID] = q
			perQuery[q][s.Name] += ms
			if s.Name == "shuffle.build" {
				perQuery[q]["shuffle.build_calls"]++
			}
		}
	}
	for _, q := range perQuery {
		for name, ms := range q {
			byName[name] = append(byName[name], ms)
		}
	}
	med := func(name string) float64 { return median(byName[name]) }
	v["cluster.tablegen_ms"] = med("cluster.tablegen")
	v["tpch.generate_ms"] = med("tpch.generate")
	v["cluster.boot_ms"] = med("cluster.boot")
	v["dag.plan_ms"] = med("dag.plan")
	v["cluster.run_wall_ms"] = med("cluster.run")
	v["shuffle.build_wall_ms"] = med("shuffle.build")
	v["shuffle.build_calls"] = med("shuffle.build_calls")
	v["bench.verify_ms"] = med("bench.verify")
	stream := v["cluster.run_wall_ms"] - v["shuffle.build_wall_ms"]
	if genInRun {
		stream -= v["cluster.tablegen_ms"]
	}
	v["cluster.stream_wall_ms"] = stream
}

// traceMetrics reads the telemetry stream of the tracer-on rep: the virtual
// post → completion latency of send-side work requests, and the number of
// flow-control write-backs.
func traceMetrics(events []telemetry.Event, v map[string]float64) {
	type key struct {
		node int32
		qp   uint64
		wr   int64
	}
	open := map[key]int64{}
	var lat []float64
	for _, e := range events {
		switch {
		case e.Name == telemetry.EvCredit:
			v["shuffle.credit_writebacks"]++
		case e.Name == telemetry.EvWR && e.Kind == telemetry.KBegin:
			open[key{e.Node, e.QP, e.A}] = int64(e.At)
		case e.Name == telemetry.EvWR && e.Kind == telemetry.KEnd:
			k := key{e.Node, e.QP, e.A}
			if at, ok := open[k]; ok {
				lat = append(lat, float64(int64(e.At)-at)/1e3)
				delete(open, k)
			}
		}
	}
	v["verbs.virt_wr_latency_us_p50"] = median(lat)
	v["verbs.virt_wr_latency_us_hi"] = highPercentile(lat)
}

// cpuBuckets are the cpu_share.* metrics other than the repository's own
// packages, with the substrings of runtime function names that select them,
// tried in order. The runtime does not name its parts by package, so this is
// a reading of its function names: memmove, the allocator, the collector,
// and the scheduler — goroutine handoffs over channels, its locks and futex
// waits, which is where a simulator Proc switch lands. Runtime functions
// that match nothing (map access, duffcopy) count as other.
var cpuBuckets = []struct {
	bucket string
	substr []string
}{
	{"runtime_memmove", []string{"memmove"}},
	{"runtime_malloc", []string{"malloc", "nextFree", "mcache", "mcentral", "memclr", "newobject",
		"makeslice", "growslice", "newarray", "(*mheap).alloc", "(*mspan).init", "publicationBarrier"}},
	{"runtime_gc", []string{"gc", "GC", "scan", "grey", "mark", "sweep", "wbBuf", "heapBits", "findObject",
		"spanOf", "typePointers", "(*mheap).free", "(*mheap).reclaim", "scavenge", "madvise",
		"bulkBarrier", "wbZero", "wbMove"}},
	{"runtime_sched", []string{"futex", "lock", "park", "ready", "sched", "findRunnable", "runq", "chan",
		"sudog", "casgstatus", "mcall", "execute", "gogo", "goexit", "wakep", "startm", "stopm", "steal",
		"pidle", "notesleep", "notewakeup", "osyield", "procyield", "usleep", "semasleep", "semawakeup",
		"guintptr", "acquirem", "releasem", "netpoll", "timer", "nanotime", "injectglist", "resetspinning",
		"systemstack", "morestack", "newstack", "newproc", "gfget", "gfput", "gdestroy", "gQueue"}},
}

var repoPackages = []string{"sim", "fabric", "verbs", "shuffle", "engine", "dag", "tpch", "cluster", "telemetry"}

// bucketTop sums the flat column of `go tool pprof -top` output by package
// of the leaf function and returns each bucket's share of all samples.
func bucketTop(text string) (map[string]float64, error) {
	shares := map[string]float64{"cpu_share.other": 0}
	for _, p := range repoPackages {
		shares["cpu_share."+p] = 0
	}
	for _, b := range cpuBuckets {
		shares["cpu_share."+b.bucket] = 0
	}
	var total float64
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := pprofSeconds(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		shares["cpu_share."+cpuBucket(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top output has no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

func cpuBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "rshuffle/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range repoPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		name, ok = strings.CutPrefix(fn, "internal/runtime/")
	}
	if !ok {
		return "other"
	}
	for _, b := range cpuBuckets {
		for _, s := range b.substr {
			if strings.Contains(name, s) {
				return b.bucket
			}
		}
	}
	return "other"
}

// pprofSeconds parses a pprof duration such as "1.20s", "30ms" or "0".
func pprofSeconds(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}, {"", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(num, 64)
			return x * u.scale, err
		}
	}
	return 0, fmt.Errorf("unparsable duration %q", s)
}
