package main

import (
	"fmt"
	"runtime"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/qperf"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// Layer probes: each drives one layer alone through its exported functions
// and reports the host time of one operation. They do not depend on the
// workload; they are the middle of the ledger between the kernel micros of
// BENCH_sim.json and the whole queries.
//
// A probe runs n operations and returns the host time they took, set-up
// excluded. It panics on a model error: a probe that cannot run is a broken
// harness, not a measurement.
type probe func(n int) time.Duration

// fastest grows n until one round fills the budget, then reports the
// fastest of three rounds in ns per operation.
func fastest(run probe, budget time.Duration) float64 {
	n := 1
	d := run(n)
	for d < budget && n < 1<<26 {
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(budget) / float64(d)
		}
		if grow < 2 {
			grow = 2
		} else if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
		d = run(n)
	}
	best := d
	for i := 0; i < 2; i++ {
		if d = run(n); d < best {
			best = d
		}
	}
	return float64(best) / float64(n)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// quiet is a profile without UD reorder jitter, so a probe's receiver sees
// every datagram in order.
func quiet(p fabric.Profile) fabric.Profile {
	p.UDReorderProb = 0
	return p
}

// runProbes measures every layer probe.
func runProbes(budget time.Duration) map[string]float64 {
	v := map[string]float64{
		"sim.schedule_ns":             fastest(probeSchedule, budget),
		"sim.proc_handoff_ns":         fastest(probeHandoff, budget),
		"sim.group_window_ns":         fastest(probeGroupWindow, budget),
		"fabric.transmit_exact_ns":    fastest(probeTransmit(false, nil), budget),
		"verbs.ud_send_ns":            fastest(probeVerb(fabric.UD, verbs.OpSend, 4096-verbs.GRHSize), budget),
		"verbs.rc_write_ns":           fastest(probeVerb(fabric.RC, verbs.OpWrite, 4096), budget),
		"verbs.rc_read_ns":            fastest(probeVerb(fabric.RC, verbs.OpRead, 4096), budget),
		"verbs.rc_send_ns":            fastest(probeQperf(4096), budget),
		"verbs.rc_send_64k_ns":        fastest(probeQperf(64<<10), budget),
		"verbs.alloc_mr_ns":           fastest(probeAllocMR, budget),
		"verbs.qp_create_connect_ns":  fastest(probeQPCreate, budget),
		"engine.scan_mrows_per_s":     1e3 / fastest(probeEngine(scanPlan), budget),
		"engine.hashjoin_mrows_per_s": 1e3 / fastest(probeEngine(joinPlan), budget),
		"engine.hashagg_mrows_per_s":  1e3 / fastest(probeEngine(aggPlan), budget),
		"dag.wire_us_per_edge":        fastest(probeDagWire, budget) / 3 / 1e3,
	}
	var mallocs float64
	v["fabric.transmit_ns"] = fastest(probeTransmit(true, &mallocs), budget)
	v["fabric.transmit_allocs"] = mallocs
	for name, impl := range map[string]shuffle.Impl{"sqsr": shuffle.SQSR, "mqsr": shuffle.MQSR,
		"mqrd": shuffle.MQRD, "mqwr": shuffle.MQWR} {
		v["shuffle.build_ms_16n."+name] = fastest(probeBuild(impl), budget) / 1e6
		v["shuffle.round_ns."+name] = fastest(probeRound(impl), budget)
	}
	return v
}

// probeSchedule is the pure event-queue path: a window of 1024 pending
// future events, each rescheduling itself.
func probeSchedule(n int) time.Duration {
	s := sim.New(1)
	remaining := n
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.After(sim.Duration(remaining%127+1), tick)
		}
	}
	for i := 0; i < 1024 && i < n; i++ {
		s.After(sim.Duration(i+1), tick)
	}
	t0 := time.Now()
	must(s.Run())
	return time.Since(t0)
}

// probeHandoff is one Proc waking another: Cond signal, dispatch of the
// waiter, and the waiter parking again.
func probeHandoff(n int) time.Duration {
	s := sim.New(1)
	c := s.NewCond("probe")
	stop := false
	var d time.Duration
	s.Spawn("waiter", func(p *sim.Proc) {
		for !stop {
			c.Wait(p)
		}
	})
	s.Spawn("signaller", func(p *sim.Proc) {
		p.Yield() // let the waiter park first
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.Signal()
			p.Yield()
		}
		d = time.Since(t0)
		stop = true
		c.Broadcast()
	})
	must(s.Run())
	s.Shutdown()
	return d
}

// probeGroupWindow is the sim.Group engine's fixed cost per lookahead
// window at one partition: each window holds a single event.
func probeGroupWindow(n int) time.Duration {
	const look = sim.Duration(1000)
	g := sim.NewGroup(1, 1, 4, look)
	s := g.Sim(g.Control())
	remaining := n
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.After(2*look, tick)
		}
	}
	s.After(look, tick)
	g.GoWide()
	t0 := time.Now()
	must(g.Run())
	d := time.Since(t0)
	g.Shutdown()
	return d
}

// probeTransmit is fabric.Transmit to the arrival callback for 4 KiB RC
// messages between two nodes, 64 in flight, on the batched arrival path or
// the exact per-message one. With mallocs set it stores the heap objects
// allocated per message.
func probeTransmit(batched bool, mallocs *float64) probe {
	return func(n int) time.Duration {
		s := sim.New(1)
		net := fabric.New(s, fabric.FDR(), 2)
		net.SetArrivalBatching(batched)
		sent := 0
		msgs := make([]*fabric.Message, 64)
		for i := range msgs {
			m := &fabric.Message{From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 4096, Service: fabric.RC}
			m.Deliver = func(sim.Time) {
				if sent < n {
					sent++
					net.Transmit(m)
				}
			}
			msgs[i] = m
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, m := range msgs {
			if sent < n {
				sent++
				net.Transmit(m)
			}
		}
		must(s.Run())
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if mallocs != nil {
			*mallocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		return d
	}
}

// probeVerb is post → completion for one work request at a time between
// two nodes: a UD send into a posted receive, or a one-sided RC write or
// read.
func probeVerb(svc fabric.Service, op verbs.Opcode, size int) probe {
	return func(n int) time.Duration {
		s := sim.New(1)
		devs := verbs.OpenAll(fabric.New(s, quiet(fabric.EDR()), 2))
		scq, rcq := devs[0].CreateCQ(64), devs[1].CreateCQ(512)
		sqp := devs[0].CreateQP(verbs.QPConfig{Type: svc, SendCQ: scq, RecvCQ: scq})
		rqp := devs[1].CreateQP(verbs.QPConfig{Type: svc, SendCQ: rcq, RecvCQ: rcq, MaxRecv: 256})
		if svc == fabric.RC {
			must(sqp.Connect(1, rqp.QPN()))
			must(rqp.Connect(0, sqp.QPN()))
		}
		local := devs[0].RegisterMRNoCost(make([]byte, size))
		const slots, slot = 128, 4096
		remote := devs[1].RegisterMRNoCost(make([]byte, slots*slot))
		wr := verbs.SendWR{Op: op, MR: local, Len: size, RemoteKey: remote.RKey,
			Dest: verbs.AH{Node: 1, QPN: rqp.QPN()}}

		done := false
		if op == verbs.OpSend {
			s.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < slots; i++ {
					must(rqp.PostRecv(p, verbs.RecvWR{ID: uint64(i), MR: remote, Offset: i * slot, Len: slot}))
				}
				var es [16]verbs.CQE
				for !done {
					k := rcq.WaitPollTimeout(p, es[:], 10*time.Microsecond)
					for _, e := range es[:k] {
						must(rqp.PostRecv(p, verbs.RecvWR{ID: e.WRID, MR: remote, Offset: int(e.WRID) * slot, Len: slot}))
					}
				}
			})
		}
		var d time.Duration
		s.Spawn("send", func(p *sim.Proc) {
			p.Sleep(time.Microsecond) // let the receives get posted
			var es [1]verbs.CQE
			t0 := time.Now()
			for i := 0; i < n; i++ {
				must(sqp.PostSend(p, wr))
				scq.WaitPoll(p, es[:])
				must(es[0].Err())
			}
			d = time.Since(t0)
			done = true
		})
		must(s.Run())
		s.Shutdown()
		return d
	}
}

// probeQperf is the repository's qperf reimplementation: RC sends posted in
// a tight loop, 64 deep, receives re-posted as they complete.
func probeQperf(size int) probe {
	return func(n int) time.Duration {
		t0 := time.Now()
		if r := qperf.Run(fabric.EDR(), size, int64(n)*int64(size)); r.Bytes != int64(n)*int64(size) {
			panic(fmt.Sprintf("qperf moved %d bytes, want %d", r.Bytes, int64(n)*int64(size)))
		}
		return time.Since(t0)
	}
}

// probeAllocMR is one pooled 64 KiB registered region allocated and
// recycled: the path every data ring takes at transport bootstrap.
func probeAllocMR(n int) time.Duration {
	d := verbs.OpenAll(fabric.New(sim.New(1), fabric.EDR(), 1))[0]
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d.AllocMRNoCost(64 << 10)
		d.RecycleMRs()
	}
	return time.Since(t0)
}

// probeQPCreate is one connected RC queue pair: two CreateQP, two Connect.
func probeQPCreate(n int) time.Duration {
	devs := verbs.OpenAll(fabric.New(sim.New(1), fabric.EDR(), 2))
	cq0, cq1 := devs[0].CreateCQ(16), devs[1].CreateCQ(16)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := devs[0].CreateQP(verbs.QPConfig{Type: fabric.RC, SendCQ: cq0, RecvCQ: cq0})
		b := devs[1].CreateQP(verbs.QPConfig{Type: fabric.RC, SendCQ: cq1, RecvCQ: cq1})
		must(a.Connect(1, b.QPN()))
		must(b.Connect(0, a.QPN()))
	}
	return time.Since(t0)
}

// probeBuild is the host time of one shuffle.Build on 16 nodes with two
// endpoints per node; n counts builds.
func probeBuild(impl shuffle.Impl) probe {
	return func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			s := sim.New(1)
			devs := verbs.OpenAll(fabric.New(s, fabric.FDR(), 16))
			s.Spawn("build", func(p *sim.Proc) {
				t0 := time.Now()
				shuffle.Build(p, devs, shuffle.Config{Impl: impl, Endpoints: 2}, 2)
				d += time.Since(t0)
			})
			must(s.Run())
			for _, dev := range devs {
				dev.RecycleMRs()
			}
			s.Shutdown()
		}
		return d
	}
}

// probeRound is one endpoint round between two nodes: GetFree and Send on
// node 0, GetData and Release on node 1, one buffer per round.
func probeRound(impl shuffle.Impl) probe {
	return func(n int) time.Duration {
		s := sim.New(1)
		devs := verbs.OpenAll(fabric.New(s, quiet(fabric.FDR()), 2))
		var t0 time.Time
		s.Spawn("round", func(p *sim.Proc) {
			comm := shuffle.Build(p, devs, shuffle.Config{Impl: impl, Endpoints: 1}, 1)
			t0 = time.Now()
			for node := 0; node < 2; node++ {
				node := node
				send, recv := comm.SendEndpoints(node)[0], comm.RecvEndpoints(node)[0]
				s.Spawn("send", func(p *sim.Proc) {
					for i := 0; node == 0 && i < n; i++ {
						b, err := send.GetFree(p)
						must(err)
						b.Len = b.Cap()
						must(send.Send(p, b, []int{1}))
					}
					must(send.Finish(p))
				})
				s.Spawn("recv", func(p *sim.Proc) {
					for {
						d, err := recv.GetData(p)
						must(err)
						if d == nil {
							return
						}
						must(recv.Release(p, d))
					}
				})
			}
		})
		must(s.Run())
		d := time.Since(t0)
		for _, dev := range devs {
			dev.RecycleMRs()
		}
		s.Shutdown()
		return d
	}
}

// The engine probes drain one operator tree over an n-row table of
// (key, id) on a single node with four worker threads.
func scanPlan(t *engine.Table) engine.Operator { return &engine.Scan{T: t} }

func aggPlan(t *engine.Table) engine.Operator {
	return &engine.HashAgg{In: &engine.Scan{T: t}, KeyCols: []int{0},
		Aggs: []engine.AggSpec{{Kind: engine.AggSum,
			Eval: func(b *engine.Batch, i int) float64 { return float64(b.Int64(i, 1)) }}}}
}

func joinPlan(t *engine.Table) engine.Operator {
	return &engine.HashJoin{Build: &engine.Scan{T: probeKeys}, Probe: &engine.Scan{T: t}}
}

// probeKeyCount is the number of distinct keys in the engine probes' table,
// and the size of the join's build side.
const probeKeyCount = 4096

var probeKeys = keyTable(probeKeyCount)

func keyTable(rows int) *engine.Table {
	t := engine.NewTable(engine.NewSchema(engine.TInt64, engine.TInt64))
	w := engine.NewWriter(t)
	for i := 0; i < rows; i++ {
		w.SetInt64(0, int64(i%probeKeyCount))
		w.SetInt64(1, int64(i))
		w.Done()
	}
	return t
}

func probeEngine(plan func(*engine.Table) engine.Operator) probe {
	return func(n int) time.Duration {
		t := keyTable(n)
		s := sim.New(1)
		prof := fabric.FDR()
		sink := &engine.Sink{In: plan(t)}
		sink.Run(&engine.Ctx{S: s, Prof: &prof, Threads: 4}, "probe", func(*sim.Proc) {})
		t0 := time.Now()
		must(s.Run())
		d := time.Since(t0)
		s.Shutdown()
		return d
	}
}

// probeDagWire is Graph.Run of the three-edge demo plan over empty tables
// on four nodes: what the planner's wiring and three transport bootstraps
// cost when no row moves.
func probeDagWire(n int) time.Duration {
	fact, dim := dag.DemoTables(4, 0, 0, 1)
	factory := cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2})
	var d time.Duration
	for i := 0; i < n; i++ {
		c := cluster.New(fabric.FDR(), 4, 2, 1)
		g := dag.MultiStageDemo(fact, dim)
		t0 := time.Now()
		if r := g.Run(c, factory); r.Err != nil {
			panic(r.Err)
		}
		d += time.Since(t0)
	}
	return d
}
