package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json as the driver's contract defines it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesHarness holds BENCHMARK.json and the harness to the same
// names and units, and BENCHMARK.json to the contract's limits.
func TestSpecMatchesHarness(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}

	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's charset", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	toy := workloads(toySize)
	if len(toy) != len(spec.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(toy), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != toy[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, toy[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("unit %q of %s is outside the contract's charset", m.Unit, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: end-to-end metrics carry a bound, per-layer metrics do not", m.Name)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestToyWorkloads runs both passes of every workload at toy size and checks
// that no query fails, that every metric the harness defines comes out, that
// the CPU shares sum to one and that the host spans of a query account for
// its wall time.
func TestToyWorkloads(t *testing.T) {
	// Layer metrics that are legitimately zero on every toy workload: the
	// retry and drop counters of a clean run, congestion signals that need
	// more data than a toy table holds, and CPU shares too small for a 100 Hz
	// profile of a few milliseconds.
	mayBeZero := regexp.MustCompile(`retransmits|tail_drops|retries|pfc_pause|ecn_marks|rate_cuts|^cpu_share\.`)
	nonZero := map[string]bool{}
	scratch := t.TempDir()
	for _, w := range workloads(toySize) {
		e, err := measureEndToEnd(w, 7, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if e.attempted != 1 || e.failed != 0 {
			t.Errorf("%s: end-to-end pass attempted %d, failed %d", w.name, e.attempted, e.failed)
		}
		metrics, err := report(endToEnd, e.values)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for n, m := range metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %g, must be positive", w.name, n, m.Value)
			}
		}

		l, err := measureLayers(w, 7, 200*time.Millisecond, 1, time.Millisecond, scratch)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if l.failed != 0 {
			t.Errorf("%s: traced pass failed %d of %d queries", w.name, l.failed, l.attempted)
		}
		if _, err := report(perLayer, l.values); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var shares float64
		for n, v := range l.values {
			if v != 0 {
				nonZero[n] = true
			}
			if strings.HasPrefix(n, "cpu_share.") {
				shares += v
			}
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu_share.* sum to %g", w.name, shares)
		}
		v := l.values
		wall := v["bench.wall_ms_median"]
		spans := v["cluster.boot_ms"] + v["dag.plan_ms"] + v["cluster.run_wall_ms"] + v["bench.verify_ms"]
		if math.Abs(spans-wall) > 0.05*wall {
			t.Errorf("%s: spans cover %.3f ms of a %.3f ms query", w.name, spans, wall)
		}
	}
	for _, d := range perLayer {
		if !nonZero[d.name] && !mayBeZero.MatchString(d.name) {
			t.Errorf("layer metric %s is zero on every workload", d.name)
		}
	}
}

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},       // no samples
		{10, 5.5},    // too few samples for anything above the median
		{11, 6},      // index 0 has ten beyond it but is below the median
		{21, 11},     // the 11th of 21 is the median itself
		{25, 15},     // p60: ten samples beyond the 15th
		{40, 30},     // p75
		{100, 90},    // p90
		{1000, 990},  // p99
		{2000, 1990}, // p99.5
	} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(c.n - i) // descending: the picker must sort
		}
		if got := highPercentile(v); got != c.want {
			t.Errorf("n=%d: got %g, want %g", c.n, got, c.want)
		}
	}
}

func TestBucketTop(t *testing.T) {
	const top = `File: rshuffle-bench
Type: cpu
Duration: 5.52s, Total samples = 10s (181%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     1.50s 15.00% 15.00%      1.50s 15.00%  runtime.memmove
        1s 10.00% 25.00%         1s 10.00%  runtime.futex
     500ms  5.00% 30.00%      2.31s 23.10%  rshuffle/internal/shuffle.(*Shuffle).Next
     500ms  5.00% 35.00%      0.24s  2.40%  runtime.chanrecv
     500ms  5.00% 40.00%      0.24s  2.40%  runtime.mallocgcSmallScanNoHeader
     500ms  5.00% 45.00%      0.24s  2.40%  runtime.memclrNoHeapPointers
     500ms  5.00% 50.00%      0.24s  2.40%  runtime.scanobject
     500ms  5.00% 55.00%      0.24s  2.40%  runtime.gcBgMarkWorker.func2
     500ms  5.00% 60.00%      0.21s  2.10%  rshuffle/internal/sim.(*Simulation).wheelAdvance
     500ms  5.00% 65.00%      0.21s  2.10%  rshuffle/internal/sim.(*Queue[go.shape.*uint8]).Pop (inline)
     500ms  5.00% 70.00%      0.21s  2.10%  rshuffle/internal/verbs.deliverUD
     500ms  5.00% 75.00%      0.21s  2.10%  rshuffle/internal/cluster.(*Cluster).RunBench.func1.KeyInt64Col.3
     500ms  5.00% 80.00%      0.21s  2.10%  rshuffle/internal/engine.RowInt64
     250ms  2.50% 82.50%      0.21s  2.10%  rshuffle/internal/fabric.(*Network).enqueueArrival
     250ms  2.50% 85.00%      0.21s  2.10%  rshuffle/internal/dag.(*Graph).Run
     250ms  2.50% 87.50%      0.21s  2.10%  rshuffle/internal/tpch.PlanQ3.func1
     250ms  2.50% 90.00%      0.21s  2.10%  rshuffle/internal/telemetry.(*Tracer).emit
     250ms  2.50% 92.50%      0.21s  2.10%  rshuffle/internal/ipoib.(*conn).send
     250ms  2.50% 95.00%      0.21s  2.10%  internal/runtime/maps.ctrlGroup.matchH2 (inline)
     250ms  2.50% 97.50%      0.21s  2.10%  aeshashbody
     250ms  2.50% 100.0%      0.21s  2.10%  main.sameTable
         0     0% 100.0%      0.21s  2.10%  runtime.mapaccess1_faststr
`
	got, err := bucketTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu_share.runtime_memmove": 0.15, "cpu_share.runtime_sched": 0.15, "cpu_share.runtime_malloc": 0.10,
		"cpu_share.runtime_gc": 0.10, "cpu_share.shuffle": 0.05, "cpu_share.sim": 0.10, "cpu_share.verbs": 0.05,
		"cpu_share.cluster": 0.05, "cpu_share.engine": 0.05, "cpu_share.fabric": 0.025, "cpu_share.dag": 0.025,
		"cpu_share.tpch": 0.025, "cpu_share.telemetry": 0.025, "cpu_share.other": 0.10,
	}
	if len(got) != len(want) {
		t.Errorf("got %d buckets, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
	if _, err := bucketTop("File: x\n      flat  flat%   sum%        cum   cum%\n"); err == nil {
		t.Error("a profile without samples must be an error")
	}
}
