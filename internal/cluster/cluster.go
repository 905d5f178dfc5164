// Package cluster provides the experiment harness: it boots a simulated
// cluster (fabric + verbs devices + worker threads per node), runs shuffle
// workloads over any transport provider, and reports virtual-time metrics.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
	"rshuffle/internal/verbs"
)

// Cluster is one simulated cluster instance. Create a fresh Cluster per
// experiment run; the embedded Simulation is single-use.
type Cluster struct {
	Sim *sim.Simulation
	Net *fabric.Network
	// Group is the cluster's logical-partition coordinator, and Sim its
	// control partition's simulation.
	Group   *sim.Group
	Devs    []*verbs.Device
	N       int
	Threads int
	// FD is the heartbeat failure detector, when one is installed
	// (InstallDetector). Run stops it once the query completes.
	FD *Detector
	// onBenchStart callbacks run when a query finishes transport setup and
	// starts streaming (see Run). Fault harnesses use it to arm
	// faults relative to the streaming phase, whose absolute start varies
	// with the per-algorithm connection setup cost.
	onBenchStart []func()
}

// AtBenchStart registers a callback to run at the instant a query starts
// streaming (after transport setup; see Run). Callbacks run inside the
// driver Proc and must not block.
func (c *Cluster) AtBenchStart(f func()) { c.onBenchStart = append(c.onBenchStart, f) }

// New boots a cluster of nodes over the given hardware profile. threads <= 0
// selects the profile's default thread count.
func New(prof fabric.Profile, nodes, threads int, seed int64) *Cluster {
	return NewWithOptions(prof, nodes, threads, seed, SimOptions{})
}

// SimOptions tunes how a cluster's simulation executes.
type SimOptions struct {
	// ParallelLPs is the number of logical partitions the cluster's nodes
	// are spread over, in contiguous blocks, and executed with conservative
	// lookahead-windowed parallelism (see internal/sim/pdes.go). Cross-node
	// interactions ride routed mailboxes at every count, so a given seed
	// produces byte-identical results whatever the value; 0 and 1 both mean
	// one partition, which runs with no windows at all. Values above the
	// node count are clamped. A lossy profile needs one partition.
	ParallelLPs int
}

// NewWithOptions boots a cluster like New, on a sim.Group of ParallelLPs
// partitions (at least one). No fault rule draws from an RNG stream, so a
// fault plan works at any count, with one caveat: a counted rule (Count > 0)
// keeps its budget in the rule and every sender it matches draws it down, so
// on more than one partition it needs a single sending node (From), or two
// partitions could draw one budget at once.
// A lossy profile rejects ParallelLPs > 1: its PFC/ECN egress model writes
// sender state from receiver context, which is only safe on one clock.
func NewWithOptions(prof fabric.Profile, nodes, threads int, seed int64, opts SimOptions) *Cluster {
	if threads <= 0 {
		threads = prof.Threads
	}
	if prof.Lossy && opts.ParallelLPs > 1 {
		panic(fmt.Sprintf("cluster: profile %s is lossy and runs on one partition; ParallelLPs %d is not supported",
			prof.Name, opts.ParallelLPs))
	}
	c := &Cluster{N: nodes, Threads: threads}
	c.Group = sim.NewGroup(seed, opts.ParallelLPs, nodes, prof.RouteLatency())
	c.Net = fabric.NewPartitioned(c.Group, prof, nodes, seed)
	c.Sim = c.Net.Sim
	c.Devs = verbs.OpenAll(c.Net)
	return c
}

// Ctx returns an operator context for one node's fragment. The fragment's
// Procs run on the simulation owning the node's partition.
func (c *Cluster) Ctx(node int) *engine.Ctx {
	return &engine.Ctx{S: c.Net.SimAt(node), Prof: &c.Net.Prof, Threads: c.Threads, Node: node}
}

// Events returns the total number of simulation events fired, summed across
// partitions.
func (c *Cluster) Events() uint64 { return c.Group.Events() }

// EnableTracing gives every node of the cluster's fabric a fresh trace
// shard holding at most capacity events, plus one for the control actor, so
// emission never crosses partitions; every layer (fabric, verbs, shuffle,
// detector) reaches its shard through Network.TracerAt. It returns the
// control shard alone: read and export the run's trace through Trace.
func (c *Cluster) EnableTracing(capacity int) *telemetry.Tracer {
	shards := make([]*telemetry.Tracer, c.N+1)
	for i := range shards {
		shards[i] = telemetry.NewTracer(capacity)
	}
	c.Net.SetTracerShards(shards)
	return shards[c.N]
}

// Trace returns the run's trace events in one deterministic stream: the
// per-node shards merged by (time, shard, emission order) and renumbered.
// Returns nil when tracing was never enabled.
func (c *Cluster) Trace() []telemetry.Event { return telemetry.MergeShards(c.Net.TraceShards()) }

// Metrics scrapes the whole stack into a fresh registry: every fabric NIC
// counter, every verbs device counter, and — when a failure detector is
// installed — its detection statistics. Call it after the run; counters in
// the registry are snapshots, not live handles.
func (c *Cluster) Metrics() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	c.Net.PublishMetrics(reg)
	for _, d := range c.Devs {
		d.PublishMetrics(reg)
	}
	if c.FD != nil {
		reg.Counter("cluster.fd_detections").Add(int64(c.FD.Detections))
		reg.Gauge("cluster.fd_max_detect_us").Set(float64(c.FD.MaxDetectionLatency) / 1e3)
	}
	return reg
}

// ProviderFactory builds one transport layer for one shuffle operator pair.
// It runs inside a Proc so it can charge setup time. Implementations exist
// for the RDMA designs (RDMAProvider), MPI, and IPoIB.
type ProviderFactory func(p *sim.Proc, c *Cluster) shuffle.Provider

// RDMAProvider returns a factory for one of the paper's RDMA designs.
func RDMAProvider(cfg shuffle.Config) ProviderFactory {
	return func(p *sim.Proc, c *Cluster) shuffle.Provider {
		return shuffle.Build(p, c.Devs, cfg, c.Threads)
	}
}

// SyntheticTable generates the §5.1 workload table R with two long integer
// attributes; R.a is uniformly distributed and randomized.
func SyntheticTable(seed int64, rows int) *engine.Table {
	return SyntheticTableWide(seed, rows, 16)
}

// fillZipf writes R with Zipf-distributed keys over the given domain over
// all of data: with exponent s > 0 some partitions receive far more data
// than others, the skew scenario the flow-join line of work targets (paper
// §6).
func fillZipf(data []byte, seed int64, domain uint64, exponent float64) *engine.Table {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1+exponent, 1, domain-1)
	t := tableOver(data, 16)
	for i := 0; i < t.N; i++ {
		binary.LittleEndian.PutUint64(data[i*16:], z.Uint64())
		binary.LittleEndian.PutUint64(data[i*16+8:], uint64(i))
	}
	return t
}

// SyntheticTableWide generates R with a configurable record width (a
// multiple of 8, at least 16): a randomized key, a row id, and padding
// columns. Wide records drive the zero-copy ablation.
func SyntheticTableWide(seed int64, rows, width int) *engine.Table {
	checkWidth(width)
	return fillWide(make([]byte, rows*width), seed, width)
}

func checkWidth(width int) {
	if width < 16 || width%8 != 0 {
		panic(fmt.Sprintf("cluster: record width %d must be a multiple of 8, >= 16", width))
	}
}

// fillWide writes SyntheticTableWide's rows over all of data, whose padding
// columns must already be zero: only key and row id are written.
func fillWide(data []byte, seed int64, width int) *engine.Table {
	rng := newSplitMix(uint64(seed))
	t := tableOver(data, width)
	for i := 0; i < t.N; i++ {
		binary.LittleEndian.PutUint64(data[i*width:], rng.next())
		binary.LittleEndian.PutUint64(data[i*width+8:], uint64(i))
	}
	return t
}

// tableOver returns a table of width/8 int64 columns whose rows are data
// itself, for a generator to fill in place: key and row id written where
// they belong, the padding never touched. A Writer would fill a scratch row
// and append it — a copy per row of a table RunBench regenerates for every
// query.
func tableOver(data []byte, width int) *engine.Table {
	cols := make([]engine.Type, width/8)
	for i := range cols {
		cols[i] = engine.TInt64
	}
	return &engine.Table{Sch: engine.NewSchema(cols...), Data: data, N: len(data) / width}
}

// splitMix is a tiny deterministic generator so table synthesis does not
// consume the simulation's RNG stream.
type splitMix struct{ x uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{x: seed} }
func (s *splitMix) next() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// BenchOpts configures a receive-throughput run (§5.1): every node scans a
// local copy of R and shuffles it on R.a.
type BenchOpts struct {
	Factory ProviderFactory
	// RowsPerNode is the size of each node's local R fragment.
	RowsPerNode int
	// Passes streams the table this many times (the paper uses ten).
	Passes int
	// Groups is the transmission pattern; nil means repartition.
	Groups shuffle.Groups
	// GroupsFn derives the transmission pattern from the cluster size when
	// Groups is nil; membership-aware recovery uses it so a restart on a
	// shrunken cluster re-plans the pattern over the survivors.
	GroupsFn func(n int) shuffle.Groups
	// BurnPerBatch makes the receiving fragment compute-intensive (Fig. 13).
	BurnPerBatch sim.Duration
	// ReceiveBatchBytes sets the receiving fragment's pull granularity when
	// BurnPerBatch is used (the paper pulls 32 KiB batches).
	ReceiveBatchBytes int
	// RowWidth is the record size in bytes (default 16; must be a multiple
	// of 8). The zero-copy ablation sweeps it.
	RowWidth int
	// ZipfExponent, when positive, draws keys from a Zipf distribution so
	// some receivers become hot (skew study); zero keeps keys uniform.
	ZipfExponent float64
	// ZeroCopy enables the shuffle operator's zero-copy send path.
	ZeroCopy bool
	// SkipTo[src][dst] marks partitions already complete from a previous
	// attempt: sender src suppresses the groups that lie entirely within its
	// skip row (partial restart). End-of-stream still propagates on skipped
	// streams, so their receivers observe a clean zero-row stream. Rows may
	// be nil or short; missing entries mean nothing is skipped.
	SkipTo [][]bool
}

// skipFor returns sender src's skip row, or nil when none is configured.
func (o BenchOpts) skipFor(src int) []bool {
	if src < len(o.SkipTo) {
		return o.SkipTo[src]
	}
	return nil
}

// pooledTable is a Zipf table (fillZipf) or SyntheticTableWide, as the
// options choose, over a row store drawn from the buffer pool. Such a store
// holds whatever its last tenant left, so the padding columns of a wide
// table are cleared before the fill.
func (o BenchOpts) pooledTable(seed int64) *engine.Table {
	if o.ZipfExponent > 0 {
		return fillZipf(bufpool.Get(o.RowsPerNode*16), seed, 1<<20, o.ZipfExponent)
	}
	checkWidth(o.RowWidth)
	data := bufpool.Get(o.RowsPerNode * o.RowWidth)
	if o.RowWidth > 16 {
		clear(data)
	}
	return fillWide(data, seed, o.RowWidth)
}

// BenchResult reports one receive-throughput run.
type BenchResult struct {
	// Elapsed is the query response time, excluding connection setup.
	Elapsed sim.Duration
	// SetupTime and RegTime are the transport bootstrap costs (Fig. 12).
	SetupTime, RegTime sim.Duration
	// BytesPerNode is each node's received payload volume.
	BytesPerNode []int64
	// RowsPerNode is each node's received row count.
	RowsPerNode []int64
	// SendMemoryPerNode and QPsPerOperator describe the transport (RDMA
	// providers only; zero otherwise).
	SendMemoryPerNode int64
	QPsPerOperator    int
	// BurnBatches counts node 0's receiving-fragment burn periods when
	// BurnPerBatch is set (used by the Fig. 13 harness).
	BurnBatches int64
	// SendBusyFrac and RecvBusyFrac are the fraction of worker-thread time
	// spent on CPU work (vs blocked on completions, credit, or buffers) in
	// the sending and receiving fragments — the paper's §5.1.3 profiling.
	SendBusyFrac, RecvBusyFrac float64
	// SetupNIC and StreamNIC are per-node NIC counter deltas scoped to the
	// transport-setup and streaming phases, so multi-phase experiments don't
	// conflate bootstrap traffic with the query itself. Backlog peaks in
	// StreamNIC are run-wide maxima (see NICStats.Sub).
	SetupNIC, StreamNIC []fabric.NICStats
	// Progress is each node's per-source partition watermark at the end of
	// the run (Progress[dst][src]); partial-restart recovery consults it to
	// decide which partitions a failed attempt completed.
	Progress [][]shuffle.PartitionProgress
	// Epochs records each node's device boot epoch at the end of the run. An
	// epoch above its starting value means the node rebooted mid-run: its
	// memory was wiped, so any partitions it held have regressed.
	Epochs []uint64
	// Err is the first transport error; non-nil means the run must restart.
	Err error
}

// ThroughputPerNode returns the mean per-node receive throughput in bytes
// per second of virtual time.
func (r *BenchResult) ThroughputPerNode() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	var total float64
	for _, b := range r.BytesPerNode {
		total += float64(b)
	}
	return total / float64(len(r.BytesPerNode)) / r.Elapsed.Seconds()
}

// GiBps converts ThroughputPerNode to GiB/s (the unit of Figs. 8-11).
func (r *BenchResult) GiBps() float64 { return r.ThroughputPerNode() / (1 << 30) }

// RunBench executes the synthetic receive-throughput query to completion
// and returns its metrics. It is a body of Run, which owns and recycles the
// cluster's simulation.
func (c *Cluster) RunBench(opts BenchOpts) (*BenchResult, error) {
	if opts.Passes <= 0 {
		opts.Passes = 1
	}
	groups := opts.Groups
	if groups == nil && opts.GroupsFn != nil {
		groups = opts.GroupsFn(c.N)
	}
	if groups == nil {
		groups = shuffle.Repartition(c.N)
	}
	res := &BenchResult{
		BytesPerNode: make([]int64, c.N),
		RowsPerNode:  make([]int64, c.N),
	}
	if opts.RowWidth == 0 {
		opts.RowWidth = 16
	}
	// The tables are the same for every query of a sweep and are built anew
	// for each, so their row stores cycle through the buffer pool: drawn
	// here, returned once Run has come back — whatever it returns, the
	// simulation is over by then and no Scan view of them is live.
	tables := make([]*engine.Table, c.N)
	for a := range tables {
		tables[a] = opts.pooledTable(int64(a) + 1)
	}
	sch := tables[0].Sch

	sends := make([]*shuffle.Shuffle, c.N)
	recvs := make([]*shuffle.Receive, c.N)
	sendSinks := make([]*engine.Sink, c.N)
	recvSinks := make([]*engine.Sink, c.N)
	var prov shuffle.Provider
	var node0Burn *engine.Burn
	q := &Query{Name: "bench"}
	q.Setup = func(p *sim.Proc) {
		prov = opts.Factory(p, c)
		if comm, ok := prov.(*shuffle.Comm); ok {
			res.SetupTime, res.RegTime = comm.SetupTime, comm.RegTime
			res.SendMemoryPerNode = comm.SendMemoryPerNode
			res.QPsPerOperator = comm.QPsPerOperator
		} else if sr, ok := prov.(setupReporter); ok {
			res.SetupTime, res.RegTime = sr.Setup()
		}
	}
	q.Stream = func(*sim.Proc) {
		for a := 0; a < c.N; a++ {
			sends[a] = &shuffle.Shuffle{
				In:   &engine.Scan{T: tables[a], Passes: opts.Passes},
				Comm: prov, Node: a, G: groups, Key: shuffle.KeyInt64Col(0),
				ZeroCopy: opts.ZeroCopy, SkipTo: opts.skipFor(a),
			}
			sendSinks[a] = &engine.Sink{In: sends[a]}
			q.Go(a, fmt.Sprintf("send%d", a), sendSinks[a])

			bt := 0
			if opts.ReceiveBatchBytes > 0 {
				bt = opts.ReceiveBatchBytes / sch.Width()
			}
			recvs[a] = &shuffle.Receive{Comm: prov, Node: a, Sch: sch, BatchTuples: bt}
			var top engine.Operator = recvs[a]
			if opts.BurnPerBatch > 0 {
				burn := &engine.Burn{In: top, PerBatch: opts.BurnPerBatch}
				top = burn
				if a == 0 {
					node0Burn = burn
				}
			}
			recvSinks[a] = &engine.Sink{In: top}
			q.Go(a, fmt.Sprintf("recv%d", a), recvSinks[a])
		}
	}
	q.Collect = func() {
		res.Elapsed = q.End.Sub(q.Start)
		res.SetupNIC = q.SetupNIC
		final := c.Net.SnapshotStats()
		res.StreamNIC = make([]fabric.NICStats, len(final))
		for i := range final {
			res.StreamNIC[i] = final[i].Sub(res.SetupNIC[i])
		}
		if node0Burn != nil {
			res.BurnBatches = node0Burn.Batches
		}
		var sb, sw, rb, rw sim.Duration
		for a := 0; a < c.N; a++ {
			sb += sendSinks[a].Busy
			sw += sendSinks[a].Blocked
			rb += recvSinks[a].Busy
			rw += recvSinks[a].Blocked
		}
		if sb+sw > 0 {
			res.SendBusyFrac = sb.Seconds() / (sb + sw).Seconds()
		}
		if rb+rw > 0 {
			res.RecvBusyFrac = rb.Seconds() / (rb + rw).Seconds()
		}
		res.Progress = make([][]shuffle.PartitionProgress, c.N)
		res.Epochs = make([]uint64, c.N)
		for a := 0; a < c.N; a++ {
			res.BytesPerNode[a] = recvs[a].Bytes
			res.RowsPerNode[a] = recvs[a].Rows
			res.Progress[a] = recvs[a].Progress(c.N)
			res.Epochs[a] = c.Devs[a].Epoch()
		}
		res.Err = shuffle.CheckErr(sends, recvs)
	}
	err := c.Run(q)
	for _, t := range tables {
		bufpool.Put(t.Data)
		t.Data = nil
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
