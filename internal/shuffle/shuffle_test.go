package shuffle

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// shuffleRun executes one complete shuffle: every node scans a local table
// and transmits each row to the group selected by hashing column 0; every
// node's receiving fragment keeps what it gets.
type shuffleRun struct {
	sim     *sim.Simulation
	net     *fabric.Network
	comm    *Comm
	sends   []*Shuffle
	recvs   []*Receive
	results []*engine.Sink
	elapsed sim.Duration
}

func quietEDR() fabric.Profile {
	p := fabric.EDR()
	p.UDReorderProb = 0
	return p
}

// launch builds the cluster and starts the query; callers then Run the sim.
func launch(t testing.TB, prof fabric.Profile, cfg Config, nodes, threads, rowsPerNode int, groups Groups, seed int64) *shuffleRun {
	t.Helper()
	return launchRun(t, runOpts{prof: prof, cfg: cfg, nodes: nodes, threads: threads,
		rowsPerNode: rowsPerNode, groups: groups, seed: seed})
}

// runOpts describes one shuffle run.
type runOpts struct {
	prof           fabric.Profile
	cfg            Config
	nodes, threads int
	rowsPerNode    int
	// rows, when set, overrides rowsPerNode node by node.
	rows   []int
	groups Groups
	// skip is every sending shuffle's SkipTo, as partial-restart recovery
	// sets it.
	skip []bool
	seed int64
}

// launchRun builds the cluster o describes and starts the query; callers
// then Run the sim.
func launchRun(t testing.TB, o runOpts) *shuffleRun {
	t.Helper()
	nodes, threads := o.nodes, o.threads
	s := sim.New(o.seed)
	net := fabric.New(s, o.prof, nodes)
	devs := verbs.OpenAll(net)
	r := &shuffleRun{sim: s, net: net}
	r.sends = make([]*Shuffle, nodes)
	r.recvs = make([]*Receive, nodes)
	r.results = make([]*engine.Sink, nodes)

	sch := engine.NewSchema(engine.TInt64, engine.TInt64)
	tables := make([]*engine.Table, nodes)
	for a := 0; a < nodes; a++ {
		n := o.rowsPerNode
		if o.rows != nil {
			n = o.rows[a]
		}
		tbl := engine.NewTable(sch)
		w := engine.NewWriter(tbl)
		for i := 0; i < n; i++ {
			w.SetInt64(0, int64(i*7+a)) // key
			w.SetInt64(1, int64(a)<<32|int64(i))
			w.Done()
		}
		tables[a] = tbl
	}

	s.Spawn("query", func(p *sim.Proc) {
		r.comm = Build(p, devs, o.cfg, threads)
		start := p.Now()
		done := s.NewWaitGroup("query")
		for a := 0; a < nodes; a++ {
			a := a
			sctx := &engine.Ctx{S: s, Prof: &net.Prof, Threads: threads, Node: a}
			r.sends[a] = &Shuffle{
				In: &engine.Scan{T: tables[a]}, Comm: r.comm, Node: a,
				G: o.groups, Key: KeyInt64Col(0), SkipTo: o.skip,
			}
			sendSink := &engine.Sink{In: r.sends[a]}
			done.Add(1)
			sendSink.Run(sctx, fmt.Sprintf("send%d", a), func(p *sim.Proc) { done.Done() })

			rctx := &engine.Ctx{S: s, Prof: &net.Prof, Threads: threads, Node: a}
			r.recvs[a] = &Receive{Comm: r.comm, Node: a, Sch: sch}
			r.results[a] = &engine.Sink{In: r.recvs[a], Keep: true}
			done.Add(1)
			r.results[a].Run(rctx, fmt.Sprintf("recv%d", a), func(p *sim.Proc) { done.Done() })
		}
		s.Spawn("timer", func(p *sim.Proc) {
			done.Wait(p)
			r.elapsed = p.Now().Sub(start)
		})
	})
	return r
}

func runShuffle(t testing.TB, prof fabric.Profile, cfg Config, nodes, threads, rowsPerNode int, groups Groups) *shuffleRun {
	t.Helper()
	r := launch(t, prof, cfg, nodes, threads, rowsPerNode, groups, 42)
	if err := r.sim.Run(); err != nil {
		t.Fatalf("%s: %v", cfg.Name(threads), err)
	}
	return r
}

// verifyRepartition checks exactly-once delivery and correct placement.
func verifyRepartition(t *testing.T, r *shuffleRun, nodes, rowsPerNode int) {
	t.Helper()
	sch := engine.NewSchema(engine.TInt64, engine.TInt64)
	key := KeyInt64Col(0)
	seen := make(map[int64]int)
	for node, sink := range r.results {
		res := sink.Result
		for i := 0; i < res.N; i++ {
			row := res.Row(i)
			want := int(key(sch, row) % uint64(nodes))
			if want != node {
				t.Fatalf("row with key %d landed on node %d, want %d",
					engine.RowInt64(sch, row, 0), node, want)
			}
			seen[engine.RowInt64(sch, row, 1)]++
		}
	}
	if len(seen) != nodes*rowsPerNode {
		t.Fatalf("distinct rows received = %d, want %d", len(seen), nodes*rowsPerNode)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("row %x delivered %d times", id, c)
		}
	}
}

func allConfigs(threads int) []Config {
	var out []Config
	for _, a := range ExtendedAlgorithms {
		out = append(out, a.Config(threads))
	}
	return out
}

func TestRepartitionAllAlgorithms(t *testing.T) {
	const nodes, threads, rows = 4, 4, 20000
	for _, cfg := range allConfigs(threads) {
		cfg := cfg
		t.Run(cfg.Name(threads), func(t *testing.T) {
			r := runShuffle(t, quietEDR(), cfg, nodes, threads, rows, Repartition(nodes))
			if err := CheckErr(r.sends, r.recvs); err != nil {
				t.Fatal(err)
			}
			verifyRepartition(t, r, nodes, rows)
		})
	}
}

func TestBroadcastAllAlgorithms(t *testing.T) {
	const nodes, threads, rows = 3, 2, 5000
	for _, cfg := range allConfigs(threads) {
		cfg := cfg
		t.Run(cfg.Name(threads), func(t *testing.T) {
			r := runShuffle(t, quietEDR(), cfg, nodes, threads, rows, Broadcast(nodes))
			for node, sink := range r.results {
				if sink.Rows != int64(nodes*rows) {
					t.Fatalf("node %d received %d rows, want %d (all rows from all nodes)",
						node, sink.Rows, nodes*rows)
				}
			}
		})
	}
}

func TestMulticastGroups(t *testing.T) {
	// 4 nodes; G[0] = {1,2}, G[1] = {3}: rows hash into two groups; group 0
	// rows are duplicated to nodes 1 and 2, group 1 rows go to node 3 only,
	// node 0 receives nothing.
	const nodes, threads, rows = 4, 2, 8000
	g := Groups{{1, 2}, {3}}
	cfg := Config{Impl: MQSR, Endpoints: threads}.Defaulted()
	r := runShuffle(t, quietEDR(), cfg, nodes, threads, rows, g)
	if r.results[0].Rows != 0 {
		t.Fatalf("node 0 received %d rows, want 0", r.results[0].Rows)
	}
	if r.results[1].Rows != r.results[2].Rows {
		t.Fatalf("multicast mismatch: node1=%d node2=%d", r.results[1].Rows, r.results[2].Rows)
	}
	total := r.results[1].Rows + r.results[3].Rows
	if total != int64(nodes*rows) {
		t.Fatalf("group coverage: %d rows, want %d", total, nodes*rows)
	}
}

func TestUDOutOfOrderDelivery(t *testing.T) {
	// Reordering enabled: the counting protocol must still deliver
	// everything exactly once.
	prof := fabric.EDR() // reorder prob 0.02 by default
	prof.UDReorderProb = 0.3
	const nodes, threads, rows = 3, 2, 10000
	cfg := Config{Impl: SQSR, Endpoints: threads}.Defaulted()
	r := runShuffle(t, prof, cfg, nodes, threads, rows, Repartition(nodes))
	verifyRepartition(t, r, nodes, rows)
}

func TestUDPacketLossDetected(t *testing.T) {
	prof := quietEDR()
	const nodes, threads, rows = 2, 2, 4000
	cfg := Config{Impl: SQSR, Endpoints: threads}.Defaulted()
	r := launch(t, prof, cfg, nodes, threads, rows, Repartition(nodes), 42)
	// Drop some mid-stream datagrams destined to node 1.
	r.sim.After(1, func() {
		r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 3})
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := CheckErr(r.sends, r.recvs)
	if got == nil {
		t.Fatal("packet loss went undetected")
	}
	if !errors.Is(got, ErrDataLoss) {
		t.Fatalf("error = %v, want ErrDataLoss", got)
	}
}

func TestCreditFrequencySweepStillCorrect(t *testing.T) {
	for _, f := range []int{1, 4, 16} {
		f := f
		t.Run(fmt.Sprintf("freq=%d", f), func(t *testing.T) {
			cfg := Config{Impl: MQSR, Endpoints: 2, CreditFrequency: f}.Defaulted()
			r := runShuffle(t, quietEDR(), cfg, 3, 2, 8000, Repartition(3))
			verifyRepartition(t, r, 3, 8000)
		})
	}
}

func TestSmallMessageSize(t *testing.T) {
	cfg := Config{Impl: MQSR, Endpoints: 2, BufSize: 4096}.Defaulted()
	r := runShuffle(t, quietEDR(), cfg, 3, 2, 8000, Repartition(3))
	verifyRepartition(t, r, 3, 8000)
}

func TestWRBufferReuseIsLocal(t *testing.T) {
	// The WR design frees send buffers on local write completions, so even
	// a minimal pool completes a broadcast without remote notifications.
	cfg := Config{Impl: MQWR, Endpoints: 2, BuffersPerPeer: 1}.Defaulted()
	r := runShuffle(t, quietEDR(), cfg, 3, 2, 6000, Broadcast(3))
	for node, sink := range r.results {
		if sink.Rows != int64(3*6000) {
			t.Fatalf("node %d: %d rows", node, sink.Rows)
		}
	}
}

func TestRDBroadcastBufferReuseWaitsForAll(t *testing.T) {
	// Broadcast with RD: every buffer needs a FreeArr notification from
	// every receiver before reuse; with a tiny pool this would deadlock if
	// notifications were lost. Completion itself is the assertion.
	cfg := Config{Impl: MQRD, Endpoints: 2, BuffersPerPeer: 1}.Defaulted()
	r := runShuffle(t, quietEDR(), cfg, 3, 2, 6000, Broadcast(3))
	for node, sink := range r.results {
		if sink.Rows != int64(3*6000) {
			t.Fatalf("node %d: %d rows", node, sink.Rows)
		}
	}
}

func TestQPCensus(t *testing.T) {
	s := sim.New(1)
	net := fabric.New(s, quietEDR(), 4)
	devs := verbs.OpenAll(net)
	type want struct {
		cfg Config
		qps int
	}
	cases := []want{
		{Config{Impl: SQSR, Endpoints: 1}, 1},
		{Config{Impl: SQSR, Endpoints: 8}, 8},
		{Config{Impl: MQSR, Endpoints: 1}, 4},
		{Config{Impl: MQSR, Endpoints: 8}, 32},
		{Config{Impl: MQRD, Endpoints: 8}, 32},
	}
	s.Spawn("build", func(p *sim.Proc) {
		for _, c := range cases {
			comm := Build(p, devs, c.cfg, 8)
			if comm.QPsPerOperator != c.qps {
				t.Errorf("%s: QPs = %d, want %d", c.cfg.Name(8), comm.QPsPerOperator, c.qps)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupTimeScalesWithQPs(t *testing.T) {
	setup := func(nodes int, cfg Config) sim.Duration {
		s := sim.New(1)
		net := fabric.New(s, quietEDR(), nodes)
		devs := verbs.OpenAll(net)
		var d sim.Duration
		s.Spawn("build", func(p *sim.Proc) {
			d = Build(p, devs, cfg, 8).SetupTime
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	meMQsmall := setup(2, Config{Impl: MQSR, Endpoints: 8})
	meMQbig := setup(8, Config{Impl: MQSR, Endpoints: 8})
	meSQsmall := setup(2, Config{Impl: SQSR, Endpoints: 8})
	meSQbig := setup(8, Config{Impl: SQSR, Endpoints: 8})
	if meMQbig < 3*meMQsmall {
		t.Fatalf("MQ setup should grow ~linearly with nodes: %v -> %v", meMQsmall, meMQbig)
	}
	if meSQbig != meSQsmall {
		t.Fatalf("SQ setup should be independent of cluster size: %v vs %v", meSQsmall, meSQbig)
	}
	if meSQbig >= meMQbig {
		t.Fatalf("SQ setup (%v) should be cheaper than MQ (%v)", meSQbig, meMQbig)
	}
}

func TestSendMemoryAccounting(t *testing.T) {
	mem := func(cfg Config) int64 {
		s := sim.New(1)
		net := fabric.New(s, quietEDR(), 4)
		devs := verbs.OpenAll(net)
		var m int64
		s.Spawn("build", func(p *sim.Proc) {
			m = Build(p, devs, cfg, 4).SendMemoryPerNode
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	small := mem(Config{Impl: MQSR, Endpoints: 4, BufSize: 16 << 10})
	big := mem(Config{Impl: MQSR, Endpoints: 4, BufSize: 256 << 10})
	ud := mem(Config{Impl: SQSR, Endpoints: 4})
	if big < 10*small {
		t.Fatalf("RC memory should scale with message size: %d vs %d", small, big)
	}
	if ud >= small {
		t.Fatalf("UD pinned memory (%d) should be far below RC at 16KiB (%d)", ud, small)
	}
}

func TestHeaderRoundtrip(t *testing.T) {
	b := make([]byte, HeaderSize)
	h := header{payload: 123456, flags: flagDepleted | flagTotal, src: 513, value: 1 << 40}
	putHeader(b, h)
	if got := getHeader(b); got != h {
		t.Fatalf("roundtrip = %+v, want %+v", got, h)
	}
}

func TestSlotPacking(t *testing.T) {
	for _, tc := range []struct {
		off, length int
		dep         bool
	}{{0, 0, false}, {448 << 20, 1 << 20, true}, {4096, 65536, false}} {
		v := packSlot(tc.off, tc.length, tc.dep)
		if v&slotValid == 0 {
			t.Fatal("packed slot not valid")
		}
		off, l, dep := unpackSlot(v)
		if off != tc.off || l != tc.length || dep != tc.dep {
			t.Fatalf("roundtrip (%d,%d,%v) = (%d,%d,%v)", tc.off, tc.length, tc.dep, off, l, dep)
		}
	}
}

func TestConfigNames(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Impl: SQSR, Endpoints: 14}, "MESQ/SR"},
		{Config{Impl: SQSR, Endpoints: 1}, "SESQ/SR"},
		{Config{Impl: MQSR, Endpoints: 14}, "MEMQ/SR"},
		{Config{Impl: MQSR, Endpoints: 1}, "SEMQ/SR"},
		{Config{Impl: MQRD, Endpoints: 14}, "MEMQ/RD"},
		{Config{Impl: MQRD, Endpoints: 1}, "SEMQ/RD"},
		{Config{Impl: MQSR, Endpoints: 7}, "7EMQ/SR"},
	} {
		if got := tc.cfg.Name(14); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestGroupsHelpers(t *testing.T) {
	r := Repartition(3)
	if len(r) != 3 || len(r[1]) != 1 || r[1][0] != 1 {
		t.Fatalf("Repartition(3) = %v", r)
	}
	b := Broadcast(3)
	if len(b) != 1 || len(b[0]) != 3 {
		t.Fatalf("Broadcast(3) = %v", b)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	cfg := Config{Impl: SQSR, Endpoints: 2}.Defaulted()
	run := func() sim.Duration {
		r := runShuffle(t, quietEDR(), cfg, 3, 2, 5000, Repartition(3))
		return r.elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic elapsed: %v vs %v", a, b)
	}
}

func BenchmarkRepartition4NodesMESQSR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{Impl: SQSR, Endpoints: 4}.Defaulted()
		runShuffle(b, quietEDR(), cfg, 4, 4, 20000, Repartition(4))
	}
}

func TestHWMulticastBroadcast(t *testing.T) {
	// Native multicast must deliver identical results to software broadcast
	// while posting far fewer send work requests.
	const nodes, threads, rows = 4, 2, 8000
	sw := runShuffle(t, quietEDR(),
		Config{Impl: SQSR, Endpoints: threads}.Defaulted(),
		nodes, threads, rows, Broadcast(nodes))
	hw := runShuffle(t, quietEDR(),
		Config{Impl: SQSR, Endpoints: threads, HWMulticast: true}.Defaulted(),
		nodes, threads, rows, Broadcast(nodes))
	for a := 0; a < nodes; a++ {
		if hw.results[a].Rows != sw.results[a].Rows {
			t.Fatalf("node %d: hw=%d sw=%d rows", a, hw.results[a].Rows, sw.results[a].Rows)
		}
		if hw.results[a].Rows != int64(nodes*rows) {
			t.Fatalf("node %d received %d rows, want %d", a, hw.results[a].Rows, nodes*rows)
		}
	}
	// CPU/NIC saving: the sender transmits roughly 1/nodes as many data
	// messages (one replicated datagram per buffer instead of one copy per
	// destination).
	swTx := sw.net.Stats(0).TxMessages
	hwTx := hw.net.Stats(0).TxMessages
	if hwTx >= swTx*2/3 {
		t.Fatalf("hardware multicast should slash transmitted messages: hw=%d sw=%d", hwTx, swTx)
	}
}

func TestHWMulticastRepartitionUnaffected(t *testing.T) {
	// Repartition groups are singletons, so the multicast path must not
	// engage and correctness must be identical.
	cfg := Config{Impl: SQSR, Endpoints: 2, HWMulticast: true}.Defaulted()
	r := runShuffle(t, quietEDR(), cfg, 4, 2, 10000, Repartition(4))
	verifyRepartition(t, r, 4, 10000)
}

func TestHWMulticastWithLossDetected(t *testing.T) {
	// Multicast datagrams are still unreliable; per-member loss must be
	// caught by the counting protocol.
	cfg := Config{Impl: SQSR, Endpoints: 2, HWMulticast: true}.Defaulted()
	r := launch(t, quietEDR(), cfg, 3, 2, 6000, Broadcast(3), 42)
	r.sim.After(1, func() {
		r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 2})
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := CheckErr(r.sends, r.recvs)
	if !errors.Is(got, ErrDataLoss) {
		t.Fatalf("error = %v, want ErrDataLoss", got)
	}
}

// Property: for arbitrary small configurations (implementation, endpoint
// count, buffer size, cluster size, thread count), repartitioning delivers
// every row exactly once to the hash-designated node.
func TestRandomConfigConservationProperty(t *testing.T) {
	impls := []Impl{SQSR, MQSR, MQRD, MQWR}
	f := func(implSel, eSel, nSel, tSel, bufSel uint8) bool {
		impl := impls[int(implSel)%len(impls)]
		nodes := 2 + int(nSel)%3   // 2..4
		threads := 1 + int(tSel)%4 // 1..4
		e := 1 + int(eSel)%threads
		buf := 4096 << (int(bufSel) % 3) // 4..16 KiB
		cfg := Config{Impl: impl, Endpoints: e, BufSize: buf}.Defaulted()
		rows := 4000
		r := launch(t, quietEDR(), cfg, nodes, threads, rows, Repartition(nodes), int64(implSel)+7)
		if err := r.sim.Run(); err != nil {
			t.Logf("%s n=%d t=%d e=%d buf=%d: %v", impl, nodes, threads, e, buf, err)
			return false
		}
		if err := CheckErr(r.sends, r.recvs); err != nil {
			t.Logf("%s n=%d t=%d e=%d buf=%d: %v", impl, nodes, threads, e, buf, err)
			return false
		}
		var total int64
		for _, s := range r.results {
			total += s.Rows
		}
		return total == int64(nodes*rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the slot codec roundtrips arbitrary in-range values.
func TestSlotCodecProperty(t *testing.T) {
	f := func(off uint32, length uint32, dep bool) bool {
		l := int(length) & 0xFFFFFF
		v := packSlot(int(off), l, dep)
		o2, l2, d2 := unpackSlot(v)
		return o2 == int(off) && l2 == l && d2 == dep && v&slotValid != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: header codec roundtrips arbitrary values.
func TestHeaderCodecProperty(t *testing.T) {
	f := func(payload uint32, flags, src uint16, value uint64) bool {
		b := make([]byte, HeaderSize)
		h := header{payload: int(payload & 0x7FFFFFFF), flags: flags, src: src, value: value}
		putHeader(b, h)
		return getHeader(b) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Name returns the paper's designation for this configuration given the
// worker thread count, e.g. "MESQ/SR".
func (c Config) Name(threads int) string {
	mode := "SE"
	if c.Endpoints >= threads {
		mode = "ME"
	} else if c.Endpoints > 1 {
		mode = fmt.Sprintf("%dE", c.Endpoints)
	}
	return mode + c.Impl.String()
}
