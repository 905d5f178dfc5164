package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
	"rshuffle/internal/tpch"
)

// dataSeed seeds every generated table and database. It is a constant, not
// the run's -seed: the virtual-time metrics carry a bound of a fraction of a
// percent, and at sizes that fit the run-time budget a different TPC-H
// database moves Q3+Q4+Q10 by ~3 %. The run's seed is the cluster
// (simulator) seed instead, which drives the model's own randomness — UD
// reorder jitter, QP-cache victim choice, ECN marking — and moves the
// virtual clock by 0.01–0.3 %.
const dataSeed = 20170423

// A workload is one whole query shape. prepare builds its inputs once;
// the returned query runs one whole query on a fresh cluster.
type workload struct {
	name string
	// genInRun says the query generates its tables itself, inside the run
	// (Cluster.RunBench does); prepare then times the same generation
	// standalone so the traced pass can take it out of the run span.
	genInRun bool
	prepare  func(rec *recorder) (query, error)
}

// query runs one whole query — boot cluster, run, verify, recycle — with
// the given cluster seed. traceCap > 0 attaches a telemetry tracer of that
// many events before the run.
type query func(seed int64, traceCap int, rec *recorder) (*outcome, error)

// outcome is what one query reports. The virtual-clock values and counts are
// deterministic for a seed; everything else is measured around the query by
// the caller.
type outcome struct {
	virtResponse sim.Duration // query response time, transport set-up excluded
	virtSetup    sim.Duration // transport bootstrap, summed over shuffle edges
	events       uint64       // simulator events fired
	counts       map[string]float64
	trace        []telemetry.Event
}

// sizes scales the workloads: the full size is what BENCHMARK.json measures,
// the toy size keeps `go test` fast.
type sizes struct {
	threads8    int // worker threads per node on the 8-node shuffle workloads
	rows8       int // rows per node on the 8-node shuffle workloads
	wideNodes   int
	wideRows    int
	tpchSF      float64
	tpchThreads int // worker threads per node; the full size is EDR's 14
	dagFact     int // fact rows per node; the dimension has an eighth of that
	dagThreads  int
	lossyRows   int
}

var (
	fullSize = sizes{threads8: 14, rows8: 1 << 18, wideNodes: 32, wideRows: 1 << 15,
		tpchSF: 0.03, tpchThreads: 14, dagFact: 40000, dagThreads: 4, lossyRows: 1 << 18}
	toySize = sizes{threads8: 2, rows8: 1 << 12, wideNodes: 6, wideRows: 1 << 10,
		tpchSF: 0.002, tpchThreads: 2, dagFact: 800, dagThreads: 2, lossyRows: 1 << 12}
)

func workloads(z sizes) []workload {
	me := func(impl shuffle.Impl, threads int) shuffle.Config {
		return shuffle.Config{Impl: impl, Endpoints: threads}
	}
	lossyCfg := me(shuffle.MQSR, 2)
	lossyCfg.BufSize = 32 << 10
	lossyCfg.BuffersPerPeer = 8
	return []workload{
		{"shuffle8_ud", true, benchWorkload(benchSpec{prof: fabric.FDR, nodes: 8, threads: z.threads8,
			rows: z.rows8, cfg: me(shuffle.SQSR, z.threads8)})},
		{"shuffle8_rc", true, benchWorkload(benchSpec{prof: fabric.FDR, nodes: 8, threads: z.threads8,
			rows: z.rows8, cfg: me(shuffle.MQSR, z.threads8)})},
		{"wide32_rc", true, benchWorkload(benchSpec{prof: fabric.FDR, nodes: z.wideNodes, threads: 2,
			rows: z.wideRows, cfg: me(shuffle.MQSR, 2), lps: 1})},
		{"tpch8_ud", false, tpchWorkload(z.tpchSF, z.tpchThreads)},
		{"dag8_rc", false, dagWorkload(z.dagFact, z.dagThreads)},
		{"lossy8_dcqcn", true, benchWorkload(benchSpec{prof: fabric.RoCEv2Lossy, nodes: 8, threads: 2,
			rows: z.lossyRows, cfg: lossyCfg})},
	}
}

// benchSpec is one Cluster.RunBench workload: every node scans its fragment
// of the synthetic table R and repartitions it on R.a.
type benchSpec struct {
	prof           func() fabric.Profile
	nodes, threads int
	rows           int
	cfg            shuffle.Config
	lps            int // > 0 runs on the sim.Group engine with that many partitions
}

func benchWorkload(s benchSpec) func(*recorder) (query, error) {
	return func(rec *recorder) (query, error) {
		// RunBench builds its tables inside the run, so there is nothing to
		// prepare; the traced pass times the same generation standalone,
		// three times because the first one pays for growing the heap.
		for i := 0; rec != nil && i < 3; i++ {
			id := rec.begin("cluster.tablegen", 0)
			for a := 0; a < s.nodes; a++ {
				cluster.SyntheticTableWide(int64(a)+1, s.rows, 16)
			}
			rec.end(id)
		}
		return s.query, nil
	}
}

func (s benchSpec) query(seed int64, traceCap int, rec *recorder) (*outcome, error) {
	q := rec.begin("query", 0)
	defer rec.end(q)

	id := rec.begin("cluster.boot", q)
	c := cluster.NewWithOptions(s.prof(), s.nodes, s.threads, seed, cluster.SimOptions{ParallelLPs: s.lps})
	if traceCap > 0 {
		shards := 1 // the sim.Group engine keeps one ring per node and one for control
		if s.lps > 0 {
			shards = s.nodes + 1
		}
		c.EnableTracing(traceCap / shards)
	}
	rec.end(id)

	id = rec.begin("cluster.run", q)
	res, err := c.RunBench(cluster.BenchOpts{
		Factory: rec.wrapFactory(cluster.RDMAProvider(s.cfg), id), RowsPerNode: s.rows,
	})
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("bench.verify", q)
	defer rec.end(id)
	if res.Err != nil {
		return nil, res.Err
	}
	var rows, bytes int64
	for a := range res.RowsPerNode {
		rows += res.RowsPerNode[a]
		bytes += res.BytesPerNode[a]
	}
	if want := int64(s.nodes) * int64(s.rows); rows != want || bytes != want*16 {
		return nil, fmt.Errorf("conservation: received %d rows, %d bytes; sent %d rows, %d bytes",
			rows, bytes, want, want*16)
	}
	o := &outcome{
		virtResponse: res.Elapsed, virtSetup: res.SetupTime + res.RegTime, events: c.Events(),
		counts: map[string]float64{
			"shuffle.virt_gibps_per_node":     res.GiBps(),
			"shuffle.send_busy_frac":          res.SendBusyFrac,
			"shuffle.recv_busy_frac":          res.RecvBusyFrac,
			"shuffle.virt_reg_ms":             float64(res.RegTime) / 1e6,
			"shuffle.send_memory_mb_per_node": float64(res.SendMemoryPerNode) / 1e6,
		},
		trace: c.Trace(),
	}
	if rec != nil { // only the traced pass reports counters
		if err := scrape(c, o.counts); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// registrySums maps what the harness sums over a query's clusters to the
// registry counters it comes from: layer metrics that are plain sums, and
// the raw.* numerators and denominators finishCounts forms ratios from.
var registrySums = map[string]string{
	"fabric.tx_messages":      "fabric.tx_messages.total",
	"fabric.rc_retransmits":   "fabric.rc_retransmits.total",
	"fabric.ecn_marks":        "fabric.ecn_marks.total",
	"fabric.tail_drops":       "fabric.tail_drops.total",
	"verbs.posts":             "verbs.posts.total",
	"verbs.polls":             "verbs.polls.total",
	"verbs.rnr_retries":       "verbs.rnr_retries.total",
	"verbs.transport_retries": "verbs.transport_retries.total",
	"verbs.rate_cuts":         "verbs.rate_cuts.total",
	"verbs.qps_created":       "verbs.qps_created.total",
	"raw.tx_wire_bytes":       "fabric.tx_wire_bytes.total",
	"raw.tx_control_bytes":    "fabric.tx_control_bytes.total",
	"raw.qp_cache_hits":       "fabric.qp_cache_hits.total",
	"raw.qp_cache_misses":     "fabric.qp_cache_misses.total",
	"raw.pfc_pause_ns":        "fabric.pfc_pause_ns.total",
	"raw.sends":               "verbs.sends_completed.total",
	"raw.recvs":               "verbs.recvs_completed.total",
	"raw.reads":               "verbs.reads_completed.total",
	"raw.writes":              "verbs.writes_completed.total",
}

// scrape adds one cluster's fabric and verbs counters to counts. A query
// made of several clusters (TPC-H) sums them; ratios are formed afterwards
// by finishCounts. A counter the registry no longer publishes is an error:
// a later change must not silently zero a layer metric.
func scrape(c *cluster.Cluster, counts map[string]float64) error {
	reg := c.Metrics()
	get := func(name string) (float64, error) {
		v, ok := reg.Value(name)
		if !ok {
			return 0, fmt.Errorf("registry has no metric %q", name)
		}
		return v, nil
	}
	for metric, name := range registrySums {
		v, err := get(name)
		if err != nil {
			return err
		}
		counts[metric] += v
	}
	peak, err := get("fabric.tx_backlog_peak_us.max")
	if err != nil {
		return err
	}
	counts["fabric.tx_backlog_peak_us"] = math.Max(counts["fabric.tx_backlog_peak_us"], peak)
	for a := 0; a < c.N; a++ {
		v, err := get(fmt.Sprintf("verbs.peak_registered_bytes.node%d", a))
		if err != nil {
			return err
		}
		counts["verbs.peak_registered_mb"] = math.Max(counts["verbs.peak_registered_mb"], v/1e6)
	}
	return nil
}

// finishCounts turns the raw sums scrape collected into the ratio metrics
// and drops the raw entries.
func finishCounts(counts map[string]float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	counts["fabric.tx_wire_mb"] = counts["raw.tx_wire_bytes"] / 1e6
	counts["fabric.tx_control_frac"] = ratio(counts["raw.tx_control_bytes"], counts["raw.tx_wire_bytes"])
	counts["fabric.qp_cache_miss_frac"] = ratio(counts["raw.qp_cache_misses"],
		counts["raw.qp_cache_hits"]+counts["raw.qp_cache_misses"])
	counts["fabric.pfc_pause_us"] = counts["raw.pfc_pause_ns"] / 1e3
	counts["verbs.completions_per_poll"] = ratio(
		counts["raw.sends"]+counts["raw.recvs"]+counts["raw.reads"]+counts["raw.writes"], counts["verbs.polls"])
	for k := range counts {
		if strings.HasPrefix(k, "raw.") {
			delete(counts, k)
		}
	}
}

// tpchWorkload runs Q3, Q4 and Q10 back to back through the DAG plans, each
// on a fresh EDR cluster over MESQ/SR. One operation is the three queries.
func tpchWorkload(sf float64, threads int) func(*recorder) (query, error) {
	const nodes = 8
	queries := []int{3, 4, 10}
	wantRows := map[int]int64{3: 10, 4: 5, 10: 20}
	return func(rec *recorder) (query, error) {
		id := rec.begin("tpch.generate", 0)
		db := tpch.Generate(sf, nodes, tpch.Random, dataSeed)
		rec.end(id)
		prof := fabric.EDR()
		mesq := cluster.RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: threads})

		// The oracle is the same plan over the paper's IPoIB baseline: the
		// rows must not depend on how they travelled. An RDMA transport
		// would not do as the reference: its rings would stay parked in the
		// verbs buffer pool, whose budget MESQ/SR's own rings nearly fill,
		// and every timed query would then allocate ~1.6 GB afresh.
		ipoibRef := cluster.IPoIBProvider(ipoib.Config{})
		ref := map[int]*engine.Table{}
		for _, q := range queries {
			qr, _, err := tpch.Run(cluster.New(prof, nodes, threads, dataSeed), db, q, ipoibRef, false)
			if err != nil {
				return nil, err
			}
			if qr.Err != nil {
				return nil, fmt.Errorf("reference Q%d: %w", q, qr.Err)
			}
			ref[q] = qr.Result
		}

		return func(seed int64, traceCap int, rec *recorder) (*outcome, error) {
			span := rec.begin("query", 0)
			defer rec.end(span)
			o := &outcome{counts: map[string]float64{}}
			for _, q := range queries {
				id := rec.begin("cluster.boot", span)
				c := cluster.New(prof, nodes, threads, seed)
				if traceCap > 0 {
					c.EnableTracing(traceCap / len(queries))
				}
				rec.end(id)

				id = rec.begin("cluster.run", span)
				qr, dr, err := tpch.Run(c, db, q, rec.wrapFactory(mesq, id), false)
				rec.end(id)
				if err != nil {
					return nil, err
				}

				id = rec.begin("bench.verify", span)
				if qr.Err != nil {
					return nil, fmt.Errorf("Q%d: %w", q, qr.Err)
				}
				if qr.Rows != wantRows[q] {
					return nil, fmt.Errorf("Q%d returned %d rows, want %d", q, qr.Rows, wantRows[q])
				}
				if err := sameTable(qr.Result, ref[q]); err != nil {
					return nil, fmt.Errorf("Q%d differs from the IPoIB reference: %w", q, err)
				}
				rec.end(id)

				o.virtResponse += qr.Elapsed
				o.virtSetup += dr.SetupTime
				o.events += c.Events()
				o.counts[fmt.Sprintf("tpch.virt_q%d_us", q)] = float64(qr.Elapsed) / 1e3
				addEdges(o.counts, dr)
				o.trace = append(o.trace, c.Trace()...)
				if rec != nil {
					if err := scrape(c, o.counts); err != nil {
						return nil, err
					}
				}
			}
			return o, nil
		}, nil
	}
}

// addEdges accumulates a plan's per-edge traffic into the dag.* counts.
func addEdges(counts map[string]float64, r *dag.Result) {
	for _, e := range r.Edges {
		if e.Type == dag.Forward {
			continue
		}
		counts["dag.network_edges"]++
		counts["dag.edge_mb"] += float64(e.Bytes) / 1e6
		counts["dag.edge_wqes"] += float64(e.WRs)
	}
}

// sameTable compares two result tables: integer and string columns exactly,
// float aggregates to 1e-9 relative, since summation order may differ
// between transports.
func sameTable(got, want *engine.Table) error {
	if got == nil || want == nil || got.N != want.N || !got.Sch.Equal(want.Sch) {
		return fmt.Errorf("shape differs")
	}
	g := engine.Batch{Sch: got.Sch, N: 1}
	w := engine.Batch{Sch: want.Sch, N: 1}
	for i := 0; i < got.N; i++ {
		g.Data, w.Data = got.Row(i), want.Row(i)
		for col, typ := range got.Sch.Cols {
			switch typ {
			case engine.TInt64:
				if g.Int64(0, col) != w.Int64(0, col) {
					return fmt.Errorf("row %d col %d: %d != %d", i, col, g.Int64(0, col), w.Int64(0, col))
				}
			case engine.TFloat64:
				a, b := g.Float64(0, col), w.Float64(0, col)
				if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
					return fmt.Errorf("row %d col %d: %g != %g", i, col, a, b)
				}
			default:
				if g.Str(0, col) != w.Str(0, col) {
					return fmt.Errorf("row %d col %d: %q != %q", i, col, g.Str(0, col), w.Str(0, col))
				}
			}
		}
	}
	return nil
}

// dagWorkload runs dag.MultiStageDemo — partial aggregation, hash
// re-shuffle, join, broadcast — on an 8-node FDR cluster over MEMQ/SR.
func dagWorkload(factRows, threads int) func(*recorder) (query, error) {
	const nodes = 8
	return func(rec *recorder) (query, error) {
		id := rec.begin("cluster.tablegen", 0)
		fact, dim := dag.DemoTables(nodes, factRows, factRows/8, dataSeed)
		rec.end(id)

		// The plan's single output row is count(groups), sum(val), sum(c)
		// with c = 3·key: compute it from the fact table directly.
		var want [3]float64
		seen := map[int64]bool{}
		for _, t := range fact {
			for i := 0; i < t.N; i++ {
				k := engine.RowInt64(t.Sch, t.Row(i), 0)
				want[1] += float64(engine.RowInt64(t.Sch, t.Row(i), 1))
				if !seen[k] {
					seen[k] = true
					want[0]++
					want[2] += float64(3 * k)
				}
			}
		}
		factory := cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: threads})

		return func(seed int64, traceCap int, rec *recorder) (*outcome, error) {
			q := rec.begin("query", 0)
			defer rec.end(q)

			id := rec.begin("cluster.boot", q)
			c := cluster.New(fabric.FDR(), nodes, threads, seed)
			if traceCap > 0 {
				c.EnableTracing(traceCap)
			}
			rec.end(id)

			id = rec.begin("dag.plan", q)
			g := dag.MultiStageDemo(fact, dim)
			rec.end(id)

			id = rec.begin("cluster.run", q)
			r := g.Run(c, rec.wrapFactory(factory, id))
			rec.end(id)

			id = rec.begin("bench.verify", q)
			defer rec.end(id)
			if r.Err != nil {
				return nil, r.Err
			}
			if r.Result == nil || r.Result.N != 1 {
				return nil, fmt.Errorf("report stage returned no single row")
			}
			for col, w := range want {
				if got := engine.RowFloat64(r.Result.Sch, r.Result.Row(0), col); got != w {
					return nil, fmt.Errorf("checksum column %d: got %g, want %g", col, got, w)
				}
			}
			o := &outcome{virtResponse: r.Elapsed, virtSetup: r.SetupTime, events: c.Events(),
				counts: map[string]float64{}, trace: c.Trace()}
			addEdges(o.counts, r)
			if rec != nil {
				if err := scrape(c, o.counts); err != nil {
					return nil, err
				}
			}
			return o, nil
		}, nil
	}
}

// A recorder keeps the host-clock spans of the traced pass in memory: one
// span around each call into a layer, children naming their parent, all
// spans of one query under its "query" span. A nil recorder records nothing,
// which is how the end-to-end pass runs.
type recorder struct {
	t0    time.Time
	spans []span
}

type span struct {
	ID, Parent int // 1-based; parent 0 is the root
	Name       string
	StartUS    float64
	EndUS      float64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartUS: float64(time.Since(r.t0)) / 1e3})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndUS = float64(time.Since(r.t0)) / 1e3
}

// wrapFactory records one "shuffle.build" span per transport the query
// builds. The factory runs inside a simulator Proc, but nothing else is
// runnable while a transport bootstraps, so the span is the build's own
// host time.
func (r *recorder) wrapFactory(f cluster.ProviderFactory, parent int) cluster.ProviderFactory {
	if r == nil {
		return f
	}
	return func(p *sim.Proc, c *cluster.Cluster) shuffle.Provider {
		id := r.begin("shuffle.build", parent)
		defer r.end(id)
		return f(p, c)
	}
}
