package cluster

import (
	"strings"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// tracedCrashRun executes one crash-stop attempt with tracing on and
// returns the exported Chrome trace. The run fails (node 1 dies
// mid-stream), so the trace covers the whole event vocabulary: WR spans,
// wire instants, detector ticks and suspicions, peer-down drains, QP
// errors, and flushed completions.
func tracedCrashRun(t *testing.T, seed int64, rows int) string {
	t.Helper()
	c := New(fabric.FDR(), 3, 2, seed)
	c.EnableTracing(1 << 16)
	c.InstallDetector(DetectorConfig{})
	c.AtBenchStart(func() {
		c.Net.Faults().Add(fabric.FaultRule{
			Class: fabric.FaultCrash, To: 1,
			Start: c.Sim.Now().Add(40 * time.Microsecond),
		})
	})
	cfg := shuffle.Algorithms[0].Config(c.Threads) // MEMQ/SR
	// Every repost writes credit back: a run this small fills no receive
	// window, so at the default frequency it may grant none.
	cfg.CreditFrequency = 1
	cfg.DepletedTimeout = 10 * time.Millisecond
	cfg.StallTimeout = 120 * time.Millisecond
	res, err := c.RunBench(BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: rows})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if res.Err == nil {
		t.Fatal("crash run unexpectedly succeeded; the trace would not cover recovery events")
	}
	// The tracer EnableTracing returns is the control shard alone; the run's
	// trace is the merged stream.
	var b strings.Builder
	if err := telemetry.WriteChromeEvents(&b, c.Trace()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTraceDeterminism is the regression oracle the telemetry layer is built
// around: two same-seed runs of a chaotic (crash-stop) workload must export
// byte-identical traces.
func TestTraceDeterminism(t *testing.T) {
	a := tracedCrashRun(t, 7, 16384)
	b := tracedCrashRun(t, 7, 16384)
	if a != b {
		t.Fatal("same-seed runs exported different traces")
	}
	// A different workload must actually change the trace, or the oracle is
	// vacuous. (A different seed alone need not: this small run never
	// consults the RNG, e.g. for QP-cache evictions.)
	if c := tracedCrashRun(t, 7, 16640); c == a {
		t.Fatal("different workloads exported identical traces")
	}
	for _, ev := range []string{
		`"name":"wr"`, `"name":"wire"`, `"name":"fd_tick"`, `"name":"suspect"`,
		`"name":"peer_down"`, `"name":"drain_peer"`, `"name":"close_peer"`,
		`"name":"qp_error"`, `"name":"phase"`, `"name":"credit"`,
	} {
		if !strings.Contains(a, ev) {
			t.Errorf("trace missing event %s", ev)
		}
	}
}

// TestRegistryQPCensus reproduces Table 1's QP-count column from registry
// data alone: on the EDR cluster (16 nodes, 14 threads) the per-operator QP
// count is half of node 0's qps_created counter (one operator pair creates
// the send and the receive side).
func TestRegistryQPCensus(t *testing.T) {
	want := map[string]int64{
		"MEMQ/SR": 224, "MEMQ/RD": 224, "MESQ/SR": 14,
		"SEMQ/SR": 16, "SEMQ/RD": 16, "SESQ/SR": 1,
	}
	for _, alg := range shuffle.Algorithms {
		c := New(fabric.EDR(), 16, 14, 1)
		cfg := alg.Config(c.Threads)
		var comm *shuffle.Comm
		c.Sim.Spawn("build", func(p *sim.Proc) {
			comm = shuffle.Build(p, c.Devs, cfg, c.Threads)
		})
		if err := c.Sim.Run(); err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		reg := c.Metrics()
		got := reg.CounterValue("verbs.qps_created.node0") / 2
		if got != want[alg.Name] {
			t.Errorf("%s: registry-derived QPs/operator = %d, want %d", alg.Name, got, want[alg.Name])
		}
		if int64(comm.QPsPerOperator) != got {
			t.Errorf("%s: registry (%d) disagrees with Comm.QPsPerOperator (%d)",
				alg.Name, got, comm.QPsPerOperator)
		}
	}
}

// TestPhaseScopedNICStats checks that RunBench splits the NIC counters into
// setup and streaming phases.
func TestPhaseScopedNICStats(t *testing.T) {
	c := New(fabric.FDR(), 3, 2, 3)
	cfg := shuffle.Algorithms[0].Config(c.Threads)
	res, err := c.RunBench(BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.SetupNIC) != 3 || len(res.StreamNIC) != 3 {
		t.Fatalf("phase snapshots missing: setup=%d stream=%d", len(res.SetupNIC), len(res.StreamNIC))
	}
	var stream int64
	for i := range res.StreamNIC {
		stream += res.StreamNIC[i].TxMessages
	}
	if stream == 0 {
		t.Fatal("streaming phase recorded no traffic")
	}
	// Setup and stream must add up to the final counters.
	final := c.Net.SnapshotStats()
	for i := range final {
		if got := res.SetupNIC[i].TxMessages + res.StreamNIC[i].TxMessages; got != final[i].TxMessages {
			t.Fatalf("node %d: setup+stream = %d, final = %d", i, got, final[i].TxMessages)
		}
	}
}

// TestLaneByteSplit checks the control/data lane accounting: control-lane
// bytes flow (credits are small inline writes) and the two lanes add up to
// the total wire volume.
func TestLaneByteSplit(t *testing.T) {
	c := New(fabric.FDR(), 3, 2, 5)
	cfg := shuffle.Algorithms[0].Config(c.Threads)
	cfg.CreditFrequency = 1 // as in tracedCrashRun: make this small run write credit back
	res, err := c.RunBench(BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var control, data, wire int64
	for _, s := range c.Net.SnapshotStats() {
		control += s.TxControlBytes
		data += s.TxDataBytes
		wire += s.TxWireBytes
	}
	if control == 0 {
		t.Fatal("no control-lane bytes recorded (credit write-backs should be small)")
	}
	if data == 0 {
		t.Fatal("no data-lane bytes recorded")
	}
	if control+data != wire {
		t.Fatalf("lanes don't add up: control %d + data %d != wire %d", control, data, wire)
	}
}
