package shuffle

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
	"rshuffle/internal/verbs"
)

func TestFanOutStartsPastSelf(t *testing.T) {
	walk := func(self int, dest []int) []int {
		var got []int
		FanOut(self, dest, func(d int) error { got = append(got, d); return nil })
		return got
	}
	for _, c := range []struct {
		self       int
		dest, want []int
	}{
		{2, []int{0, 1, 2, 3, 4}, []int{3, 4, 0, 1, 2}},
		{4, []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}},
		{0, []int{0, 1, 2, 3, 4}, []int{1, 2, 3, 4, 0}},
		{2, []int{1, 3}, []int{3, 1}},
		{1, []int{1}, []int{1}},
		{0, nil, nil},
	} {
		if got := walk(c.self, c.dest); !reflect.DeepEqual(got, c.want) {
			t.Errorf("FanOut(%d, %v) visits %v, want %v", c.self, c.dest, got, c.want)
		}
	}
	stop := errors.New("stop")
	var n int
	err := FanOut(0, []int{0, 1, 2}, func(int) error { n++; return stop })
	if err != stop || n != 1 {
		t.Fatalf("FanOut after an error: err %v after %d visits, want stop after 1", err, n)
	}
}

// rcTailConfigs are the designs whose end-of-stream rides the last data
// buffer, each shared by two threads (SE) and one endpoint per thread (ME).
func rcTailConfigs(threads int) []Config {
	var out []Config
	for _, impl := range []Impl{MQSR, MQRD, MQWR} {
		for _, e := range []int{threads, 1} {
			out = append(out, Config{Impl: impl, Endpoints: e}.Defaulted())
		}
	}
	return out
}

// sendQPs maps the trace key of every RC send-endpoint queue pair of node a
// to the peer it reaches.
func sendQPs(c *Comm, a int) map[uint64]int {
	m := make(map[uint64]int)
	for _, ep := range c.Nodes[a].Send {
		var core *endpoint
		switch e := ep.(type) {
		case *srRCSend:
			core = &e.endpoint
		case *rdRCSend:
			core = &e.endpoint
		case *wrRCSend:
			core = &e.endpoint
		}
		for peer, qp := range core.qps {
			m[uint64(a)<<32|uint64(qp.QPN())] = peer
		}
	}
	return m
}

// TestFanOutStartsPastTheSender reads the wire: in a run too small to fill
// a buffer, every node's first message from a send endpoint is a partial
// buffer or a broadcast, and it goes to the next node, not to node 0.
func TestFanOutStartsPastTheSender(t *testing.T) {
	const nodes, threads, rows = 4, 2, 2000
	for _, cfg := range rcTailConfigs(threads) {
		for _, pat := range []struct {
			name   string
			groups Groups
		}{{"repartition", Repartition(nodes)}, {"broadcast", Broadcast(nodes)}} {
			t.Run(cfg.Name(threads)+"/"+pat.name, func(t *testing.T) {
				r := launch(t, quietEDR(), cfg, nodes, threads, rows, pat.groups, 42)
				shards := make([]*telemetry.Tracer, nodes+1)
				for i := range shards {
					shards[i] = telemetry.NewTracer(1 << 14)
				}
				r.net.SetTracerShards(shards)
				if err := r.sim.Run(); err != nil {
					t.Fatal(err)
				}
				if err := CheckErr(r.sends, r.recvs); err != nil {
					t.Fatal(err)
				}
				for a := 0; a < nodes; a++ {
					qps, first := sendQPs(r.comm, a), -1
					for _, ev := range telemetry.MergeShards(shards) {
						if peer, ok := qps[ev.QP]; ok && ev.Name == telemetry.EvWire && int(ev.Node) == a {
							first = peer
							break
						}
					}
					if want := (a + 1) % nodes; first != want {
						t.Errorf("node %d's first message went to node %d, want %d", a, first, want)
					}
				}
			})
		}
	}
}

// arrivals counts the buffers receive endpoint ep took in from src, data
// and zero-payload markers alike: each design hands every arrival back to
// its source exactly once (a repost that raises credit, a FreeArr return, a
// slot re-grant) and counts those.
func arrivals(ep RecvEndpoint, src int) int {
	switch e := ep.(type) {
	case *srRCRecv:
		return int(e.creditIssued[src]) - e.perSrc
	case *rdRCRecv:
		return e.freeOut.pos[src]
	case *wrRCRecv:
		return e.slotOut.pos[src] - e.perSrc
	}
	panic(fmt.Sprintf("arrivals: %T", ep))
}

// TestEndOfStreamCensus counts zero-payload markers: a run sends one only
// toward a destination that no tail buffer of the endpoint reached, and
// rows are conserved either way.
func TestEndOfStreamCensus(t *testing.T) {
	const nodes, threads, rows = 4, 2, 8192
	skip1 := []bool{false, true, false, false}
	cases := []struct {
		name   string
		groups Groups
		rows   []int  // per node; nil is rows everywhere
		skip   []bool // SkipTo
		// uncovered is how many destinations of each send endpoint of node
		// a saw no tail buffer.
		uncovered func(a int) int
	}{
		{"repartition", Repartition(nodes), nil, nil, func(int) int { return 0 }},
		{"broadcast", Broadcast(nodes), nil, nil, func(int) int { return 0 }},
		// Every sender skips node 1: its partition never leaves, so each
		// endpoint owes node 1 a marker and nobody else one.
		{"repartition/skip", Repartition(nodes), nil, skip1, func(int) int { return 1 }},
		// Node 0 has no rows: its endpoints hold no tails and owe every
		// node a marker.
		{"broadcast/empty-node", Broadcast(nodes), []int{0, rows, rows, rows}, nil,
			func(a int) int {
				if a == 0 {
					return nodes
				}
				return 0
			}},
	}
	for _, cfg := range rcTailConfigs(threads) {
		for _, c := range cases {
			t.Run(cfg.Name(threads)+"/"+c.name, func(t *testing.T) {
				r := launchRun(t, runOpts{prof: quietEDR(), cfg: cfg, nodes: nodes, threads: threads,
					rowsPerNode: rows, rows: c.rows, groups: c.groups, skip: c.skip, seed: 42})
				if err := r.sim.Run(); err != nil {
					t.Fatal(err)
				}
				if err := CheckErr(r.sends, r.recvs); err != nil {
					t.Fatal(err)
				}
				var got, dataWRs, want int
				for a := 0; a < nodes; a++ {
					for _, ep := range r.comm.Nodes[a].Recv {
						for src := 0; src < nodes; src++ {
							got += arrivals(ep, src)
						}
					}
					dataWRs += int(r.sends[a].SendWRs)
					want += cfg.Endpoints * c.uncovered(a)
				}
				if got-dataWRs != want {
					t.Errorf("%d zero-payload markers arrived (%d buffers, %d of them data), want %d",
						got-dataWRs, got, dataWRs, want)
				}
			})
		}
	}
}

// TestWRGetDataRescansAfterGrant pins the Write receiver's wake-up: a
// marker's re-grant blocks (here on the endpoint's gate, held by the test),
// and meanwhile data lands from a source the scan has already passed. That
// landing raises no memory change a later wait could see, so GetData must
// scan again rather than sleep out a whole wait quantum.
func TestWRGetDataRescansAfterGrant(t *testing.T) {
	s := sim.New(1)
	devs := verbs.OpenAll(fabric.New(s, quietEDR(), 3))
	var (
		got  *Data
		took sim.Duration
	)
	s.Spawn("test", func(p *sim.Proc) {
		c := Build(p, devs, Config{Impl: MQWR, Endpoints: 1}, 1)
		e := c.Nodes[2].Recv[0].(*wrRCRecv)
		// land writes src's buffer into slot and announces it, as the
		// sender's two RDMA Writes would.
		land := func(src, slot, payload int, depleted bool) {
			putHeader(e.slotMR.Bytes(slot, HeaderSize), header{payload: payload, src: uint16(src)})
			w := e.validArr.mr.Bytes(e.validArr.slot(src, 0), 8)
			verbs.PutUint64(w, packSlot(slot, HeaderSize+payload, depleted))
			e.dev.KickMemWaiters()
		}
		land(1, e.perSrc*e.cfg.BufSize, 0, true) // node 1's end-of-stream marker
		start := p.Now()
		e.gate.mu.Lock(p)
		s.Spawn("getdata", func(p *sim.Proc) {
			d, err := e.GetData(p)
			if err != nil {
				t.Error(err)
			}
			got, took = d, p.Now().Sub(start)
		})
		p.Sleep(5 * time.Microsecond) // GetData now blocks in the marker's re-grant
		land(0, 0, 16, false)         // node 0's data, behind the scan
		p.Sleep(5 * time.Microsecond)
		e.gate.mu.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Src != 0 {
		t.Fatalf("GetData returned %+v, want node 0's buffer", got)
	}
	if took >= waitQuantum {
		t.Fatalf("GetData took %v: it slept out a wait quantum (%v) with data queued", took, waitQuantum)
	}
}
