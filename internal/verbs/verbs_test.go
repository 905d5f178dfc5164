package verbs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// testRig wires a quiet two-node (or n-node) fabric with verbs devices.
type testRig struct {
	sim  *sim.Simulation
	net  *fabric.Network
	devs []*Device
}

func newRig(t testing.TB, nodes int, mutate ...func(*fabric.Profile)) *testRig {
	t.Helper()
	p := fabric.EDR()
	p.UDReorderProb = 0
	p.UDLossRate = 0
	for _, m := range mutate {
		m(&p)
	}
	s := sim.New(1)
	net := fabric.New(s, p, nodes)
	return &testRig{sim: s, net: net, devs: OpenAll(net)}
}

// trace installs a trace shard of capacity events on every node and returns
// a reader of the merged stream.
func (r *testRig) trace(capacity int) func() []telemetry.Event {
	shards := make([]*telemetry.Tracer, r.net.Nodes()+1)
	for i := range shards {
		shards[i] = telemetry.NewTracer(capacity)
	}
	r.net.SetTracerShards(shards)
	return func() []telemetry.Event { return telemetry.MergeShards(shards) }
}

// rcPair creates a connected RC QP pair between nodes a and b and returns
// (qpA, qpB, cqA, cqB) where each cq serves both send and recv.
func (r *testRig) rcPair(a, b int) (*QP, *QP, *CQ, *CQ) {
	cqa := r.devs[a].CreateCQ(4096)
	cqb := r.devs[b].CreateCQ(4096)
	qpa := r.devs[a].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cqa, RecvCQ: cqa})
	qpb := r.devs[b].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cqb, RecvCQ: cqb})
	if err := qpa.Connect(b, qpb.QPN()); err != nil {
		panic(err)
	}
	if err := qpb.Connect(a, qpa.QPN()); err != nil {
		panic(err)
	}
	return qpa, qpb, cqa, cqb
}

func TestRCSendRecvRoundtrip(t *testing.T) {
	r := newRig(t, 2)
	qpa, qpb, cqa, cqb := r.rcPair(0, 1)
	var got []byte
	var recvCQE, sendCQE CQE

	r.sim.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 128)
		mr := r.devs[1].RegisterMRNoCost(buf)
		if err := qpb.PostRecv(p, RecvWR{ID: 7, MR: mr, Len: 128}); err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cqb.WaitPoll(p, es[:])
		recvCQE = es[0]
		got = append([]byte(nil), buf[:es[0].Bytes]...)
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // let the receive get posted
		buf := []byte("hello rdma world")
		mr := r.devs[0].RegisterMRNoCost(buf)
		err := qpa.PostSend(p, SendWR{ID: 3, Op: OpSend, MR: mr, Len: len(buf), Imm: 42, HasImm: true})
		if err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
		sendCQE = es[0]
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello rdma world" {
		t.Fatalf("payload = %q", got)
	}
	if recvCQE.Op != OpRecv || recvCQE.WRID != 7 || recvCQE.Bytes != 16 {
		t.Fatalf("recv CQE = %+v", recvCQE)
	}
	if !recvCQE.HasImm || recvCQE.Imm != 42 {
		t.Fatalf("immediate lost: %+v", recvCQE)
	}
	if recvCQE.SrcNode != 0 || recvCQE.SrcQPN != qpa.QPN() {
		t.Fatalf("source identity wrong: %+v", recvCQE)
	}
	if sendCQE.Op != OpSend || sendCQE.WRID != 3 {
		t.Fatalf("send CQE = %+v", sendCQE)
	}
	if qpa.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after completion", qpa.Outstanding())
	}
}

func TestRCRNRRetryWhenRecvPostedLate(t *testing.T) {
	r := newRig(t, 2)
	qpa, qpb, cqa, cqb := r.rcPair(0, 1)
	delivered := false
	r.sim.Spawn("send", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 64}); err != nil {
			t.Error(err)
		}
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
	})
	r.sim.Spawn("recv", func(p *sim.Proc) {
		// Post the receive well after the send has arrived and NAKed.
		p.Sleep(100 * time.Microsecond)
		buf := make([]byte, 64)
		mr := r.devs[1].RegisterMRNoCost(buf)
		if err := qpb.PostRecv(p, RecvWR{MR: mr, Len: 64}); err != nil {
			t.Error(err)
		}
		var es [1]CQE
		cqb.WaitPoll(p, es[:])
		delivered = true
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("send never delivered after RNR retries")
	}
	if r.devs[1].Stats().RNRRetries == 0 {
		t.Fatal("expected RNR retries to be counted on the responder")
	}
}

func TestUDSendCompletesBeforeDelivery(t *testing.T) {
	r := newRig(t, 2)
	cq0 := r.devs[0].CreateCQ(64)
	cq1 := r.devs[1].CreateCQ(64)
	ud0 := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq0, RecvCQ: cq0})
	ud1 := r.devs[1].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq1, RecvCQ: cq1})

	var sendDone, recvDone sim.Time
	var rcqe CQE
	var payload []byte
	r.sim.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 4096+GRHSize)
		mr := r.devs[1].RegisterMRNoCost(buf)
		if err := ud1.PostRecv(p, RecvWR{ID: 9, MR: mr, Len: len(buf)}); err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cq1.WaitPoll(p, es[:])
		rcqe = es[0]
		recvDone = p.Now()
		payload = append([]byte(nil), buf[GRHSize:es[0].Bytes]...)
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		msg := bytes.Repeat([]byte{0xAB}, 4096)
		mr := r.devs[0].RegisterMRNoCost(msg)
		err := ud0.PostSend(p, SendWR{ID: 5, Op: OpSend, MR: mr, Len: 4096,
			Dest: AH{Node: 1, QPN: ud1.QPN()}})
		if err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cq0.WaitPoll(p, es[:])
		sendDone = p.Now()
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone >= recvDone {
		t.Fatalf("UD send completion at %v should precede delivery at %v", sendDone, recvDone)
	}
	if rcqe.Bytes != 4096+GRHSize {
		t.Fatalf("UD recv bytes = %d, want %d", rcqe.Bytes, 4096+GRHSize)
	}
	if rcqe.SrcNode != 0 || rcqe.SrcQPN != ud0.QPN() {
		t.Fatalf("UD source identity wrong: %+v", rcqe)
	}
	for _, b := range payload {
		if b != 0xAB {
			t.Fatal("UD payload corrupted")
		}
	}
}

func TestUDDropWithoutRecv(t *testing.T) {
	r := newRig(t, 2)
	cq0 := r.devs[0].CreateCQ(64)
	cq1 := r.devs[1].CreateCQ(64)
	ud0 := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq0, RecvCQ: cq0})
	ud1 := r.devs[1].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq1, RecvCQ: cq1})
	r.sim.Spawn("send", func(p *sim.Proc) {
		buf := make([]byte, 512)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := ud0.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 512,
			Dest: AH{Node: 1, QPN: ud1.QPN()}}); err != nil {
			t.Error(err)
		}
		var es [1]CQE
		cq0.WaitPoll(p, es[:]) // local send completion still arrives
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r.devs[1].Stats().UDNoRecvDrops != 1 {
		t.Fatalf("UDNoRecvDrops = %d, want 1", r.devs[1].Stats().UDNoRecvDrops)
	}
	if cq1.Len() != 0 {
		t.Fatal("receiver CQ should be empty after drop")
	}
}

func TestPostErrors(t *testing.T) {
	r := newRig(t, 2)
	cq0 := r.devs[0].CreateCQ(64)
	ud := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq0, RecvCQ: cq0})
	rc := r.devs[0].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cq0, RecvCQ: cq0, MaxSend: 1, MaxRecv: 1})
	r.sim.Spawn("t", func(p *sim.Proc) {
		big := make([]byte, 8192)
		mr := r.devs[0].RegisterMRNoCost(big)

		if err := ud.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 8192, Dest: AH{Node: 1}}); err != ErrTooLong {
			t.Errorf("UD oversize: err = %v, want ErrTooLong", err)
		}
		if err := ud.PostSend(p, SendWR{Op: OpRead, MR: mr, Len: 64}); err != ErrBadOp {
			t.Errorf("UD read: err = %v, want ErrBadOp", err)
		}
		if err := rc.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 64}); err != ErrNotConnected {
			t.Errorf("unconnected RC: err = %v, want ErrNotConnected", err)
		}
		if err := rc.PostSend(p, SendWR{Op: OpSend, MR: mr, Offset: 8000, Len: 500}); err != ErrOutOfRange {
			t.Errorf("out of range: err = %v, want ErrOutOfRange", err)
		}
		if err := ud.PostRecv(p, RecvWR{MR: mr, Len: GRHSize}); err != ErrTooLong {
			t.Errorf("UD tiny recv: err = %v, want ErrTooLong", err)
		}
		if err := rc.PostRecv(p, RecvWR{MR: mr, Len: 64}); err != nil {
			t.Errorf("first recv: %v", err)
		}
		if err := rc.PostRecv(p, RecvWR{MR: mr, Len: 64}); err != ErrRQFull {
			t.Errorf("RQ overflow: err = %v, want ErrRQFull", err)
		}
		if err := ud.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 500, Inline: true, Dest: AH{Node: 1}}); err != ErrTooLong {
			t.Errorf("oversize inline: err = %v, want ErrTooLong", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSQDepthLimit(t *testing.T) {
	r := newRig(t, 2)
	cqa := r.devs[0].CreateCQ(64)
	cqb := r.devs[1].CreateCQ(64)
	qpa := r.devs[0].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cqa, RecvCQ: cqa, MaxSend: 2})
	qpb := r.devs[1].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cqb, RecvCQ: cqb})
	qpa.Connect(1, qpb.QPN())
	qpb.Connect(0, qpa.QPN())
	r.sim.Spawn("send", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		wr := SendWR{Op: OpSend, MR: mr, Len: 64}
		if err := qpa.PostSend(p, wr); err != nil {
			t.Error(err)
		}
		if err := qpa.PostSend(p, wr); err != nil {
			t.Error(err)
		}
		if err := qpa.PostSend(p, wr); err != ErrSQFull {
			t.Errorf("third post: err = %v, want ErrSQFull", err)
		}
	})
	r.sim.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 256)
		mr := r.devs[1].RegisterMRNoCost(buf)
		for i := 0; i < 2; i++ {
			if err := qpb.PostRecv(p, RecvWR{MR: mr, Offset: i * 64, Len: 64}); err != nil {
				t.Error(err)
			}
		}
		var es [2]CQE
		for n := 0; n < 2; {
			n += cqb.WaitPoll(p, es[:])
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedPostsAreNotCounted: Posts counts the work requests a queue
// pair accepted. A send bounced with ErrSQFull and a receive bounced with
// ErrRQFull still cost the caller PostCost, but neither is counted.
func TestRefusedPostsAreNotCounted(t *testing.T) {
	r := newRig(t, 2)
	cqa := r.devs[0].CreateCQ(64)
	cqb := r.devs[1].CreateCQ(64)
	qpa := r.devs[0].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cqa, RecvCQ: cqa, MaxSend: 2, MaxRecv: 1})
	qpb := r.devs[1].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cqb, RecvCQ: cqb})
	qpa.Connect(1, qpb.QPN())
	qpb.Connect(0, qpa.QPN())
	cost := r.devs[0].prof().PostCost
	r.sim.Spawn("send", func(p *sim.Proc) {
		mr := r.devs[0].RegisterMRNoCost(make([]byte, 64))
		wr := SendWR{Op: OpSend, MR: mr, Len: 64}
		for i := 0; i < 2; i++ {
			if err := qpa.PostSend(p, wr); err != nil {
				t.Error(err)
			}
		}
		if err := qpa.PostRecv(p, RecvWR{MR: mr, Len: 64}); err != nil {
			t.Error(err)
		}
		at := p.Now()
		if err := qpa.PostSend(p, wr); err != ErrSQFull {
			t.Errorf("third send: err = %v, want ErrSQFull", err)
		}
		if err := qpa.PostRecv(p, RecvWR{MR: mr, Len: 64}); err != ErrRQFull {
			t.Errorf("second receive: err = %v, want ErrRQFull", err)
		}
		if took := p.Now() - at; took != sim.Time(2*cost) {
			t.Errorf("two refused posts took %v, want two PostCosts (%v)", took, 2*cost)
		}
		if n := r.devs[0].Stats().Posts; n != 3 {
			t.Errorf("Posts = %d after three accepted posts and two refused ones, want 3", n)
		}
	})
	r.sim.Spawn("recv", func(p *sim.Proc) {
		mr := r.devs[1].RegisterMRNoCost(make([]byte, 128))
		for i := 0; i < 2; i++ {
			if err := qpb.PostRecv(p, RecvWR{MR: mr, Offset: i * 64, Len: 64}); err != nil {
				t.Error(err)
			}
		}
		var es [2]CQE
		for n := 0; n < 2; {
			n += cqb.WaitPoll(p, es[:])
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAWriteUpdatesRemoteMemory(t *testing.T) {
	r := newRig(t, 2)
	qpa, _, cqa, _ := r.rcPair(0, 1)
	remote := make([]byte, 256)
	rmr := r.devs[1].RegisterMRNoCost(remote)

	woken := false
	r.sim.Spawn("poller", func(p *sim.Proc) {
		if !r.devs[1].WaitMemChange(p, time.Second) {
			t.Error("WaitMemChange timed out")
			return
		}
		woken = true
		if ReadUint64(remote[16:]) != 0xDEADBEEF {
			t.Errorf("remote word = %#x", ReadUint64(remote[16:]))
		}
	})
	r.sim.Spawn("writer", func(p *sim.Proc) {
		local := make([]byte, 8)
		PutUint64(local, 0xDEADBEEF)
		lmr := r.devs[0].RegisterMRNoCost(local)
		err := qpa.PostSend(p, SendWR{Op: OpWrite, MR: lmr, Len: 8,
			RemoteKey: rmr.RKey, RemoteOffset: 16})
		if err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
		if es[0].Op != OpWrite {
			t.Errorf("completion op = %v, want WRITE", es[0].Op)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("memory-change waiter never woke")
	}
	if r.devs[1].Stats().RemoteWrites != 1 {
		t.Fatalf("RemoteWrites = %d, want 1", r.devs[1].Stats().RemoteWrites)
	}
}

func TestRDMAReadPullsRemoteMemory(t *testing.T) {
	r := newRig(t, 2)
	qpa, _, cqa, _ := r.rcPair(0, 1)
	remote := bytes.Repeat([]byte{0x5C}, 65536)
	rmr := r.devs[1].RegisterMRNoCost(remote)
	local := make([]byte, 65536)
	lmr := r.devs[0].RegisterMRNoCost(local)

	r.sim.Spawn("reader", func(p *sim.Proc) {
		err := qpa.PostSend(p, SendWR{ID: 11, Op: OpRead, MR: lmr, Len: 65536,
			RemoteKey: rmr.RKey, RemoteOffset: 0})
		if err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
		if es[0].Op != OpRead || es[0].WRID != 11 || es[0].Bytes != 65536 {
			t.Errorf("read CQE = %+v", es[0])
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, remote) {
		t.Fatal("read data does not match remote memory")
	}
	if r.devs[1].Stats().Posts != 0 {
		t.Fatal("one-sided read must not involve the remote CPU")
	}
}

func TestSharedQPPostContention(t *testing.T) {
	// Two procs posting back-to-back on one QP must serialize on the QP
	// lock: total elapsed CPU time is at least 2 posts in sequence.
	r := newRig(t, 2)
	qpa, qpb, _, cqb := r.rcPair(0, 1)
	_ = cqb
	post := r.net.Prof.PostCost
	buf := make([]byte, 64)
	mr := r.devs[0].RegisterMRNoCost(buf)
	rbuf := make([]byte, 4096)
	rmr := r.devs[1].RegisterMRNoCost(rbuf)
	var t1, t2 sim.Time
	r.sim.Spawn("prep", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			qpb.PostRecv(p, RecvWR{MR: rmr, Offset: i * 64, Len: 64})
		}
	})
	for i := 0; i < 2; i++ {
		i := i
		r.sim.Spawn("poster", func(p *sim.Proc) {
			p.Sleep(time.Microsecond) // after prep
			if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 64}); err != nil {
				t.Error(err)
			}
			if i == 0 {
				t1 = p.Now()
			} else {
				t2 = p.Now()
			}
		})
	}
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	gap := t2 - t1
	if gap < 0 {
		gap = -gap
	}
	if sim.Duration(gap) < post {
		t.Fatalf("posts completed %v apart; want at least one PostCost (%v) of serialization", gap, post)
	}
}

func TestMRAccounting(t *testing.T) {
	r := newRig(t, 1)
	d := r.devs[0]
	d.RegisterMRNoCost(make([]byte, 1000))
	d.RegisterMRNoCost(make([]byte, 500))
	if d.RegisteredBytes() != 1500 {
		t.Errorf("registered = %d, want 1500", d.RegisteredBytes())
	}
	d.AllocRingNoCost(4, 1000)
	if d.RegisteredBytes() != 5500 {
		t.Errorf("registered = %d, want 5500", d.RegisteredBytes())
	}
	d.RecycleMRs() // drops the pooled ring, keeps the regions over caller memory
	if d.RegisteredBytes() != 1500 {
		t.Errorf("registered = %d, want 1500", d.RegisteredBytes())
	}
	if d.peakRegistered != 5500 {
		t.Errorf("peak = %d, want 5500", d.peakRegistered)
	}
}

func TestCQOverrunPanics(t *testing.T) {
	r := newRig(t, 1)
	cq := r.devs[0].CreateCQ(1)
	defer func() {
		if recover() == nil {
			t.Fatal("CQ overrun did not panic")
		}
	}()
	cq.push(CQE{})
	cq.push(CQE{})
}

func TestWaitPollTimeout(t *testing.T) {
	r := newRig(t, 1)
	cq := r.devs[0].CreateCQ(16)
	var n int
	var at sim.Time
	r.sim.Spawn("poller", func(p *sim.Proc) {
		var es [1]CQE
		n = cq.WaitPollTimeout(p, es[:], 50*time.Microsecond)
		at = p.Now()
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("poll returned %d entries on empty CQ", n)
	}
	if at != sim.Time(50*time.Microsecond) {
		t.Fatalf("timed out at %v, want 50µs", at)
	}
}

// Property: any sequence of RC sends arrives intact and in order.
func TestRCStreamIntegrityProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		if len(lens) == 0 || len(lens) > 60 {
			return true
		}
		r := newRig(t, 2)
		qpa, qpb, cqa, cqb := r.rcPair(0, 1)
		sent := make([][]byte, len(lens))
		var got [][]byte
		r.sim.Spawn("recv", func(p *sim.Proc) {
			buf := make([]byte, 512)
			mr := r.devs[1].RegisterMRNoCost(buf)
			for range lens {
				if err := qpb.PostRecv(p, RecvWR{MR: mr, Len: 512}); err != nil {
					t.Error(err)
					return
				}
				var es [1]CQE
				cqb.WaitPoll(p, es[:])
				got = append(got, append([]byte(nil), buf[:es[0].Bytes]...))
			}
		})
		r.sim.Spawn("send", func(p *sim.Proc) {
			for i, l := range lens {
				n := int(l) + 1
				msg := make([]byte, n)
				for j := range msg {
					msg[j] = byte(i ^ j)
				}
				sent[i] = msg
				mr := r.devs[0].RegisterMRNoCost(msg)
				for {
					err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: n})
					if err == nil {
						break
					}
					if err == ErrSQFull {
						var es [8]CQE
						cqa.WaitPoll(p, es[:])
						continue
					}
					t.Error(err)
					return
				}
			}
		})
		if err := r.sim.Run(); err != nil {
			t.Error(err)
			return false
		}
		if len(got) != len(sent) {
			return false
		}
		for i := range sent {
			if !bytes.Equal(got[i], sent[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRCSendRecv4K(b *testing.B) {
	r := newRig(b, 2)
	qpa, qpb, cqa, cqb := r.rcPair(0, 1)
	const depth = 64
	r.sim.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, depth*4096)
		mr := r.devs[1].RegisterMRNoCost(buf)
		for i := 0; i < depth; i++ {
			qpb.PostRecv(p, RecvWR{MR: mr, Offset: i * 4096, Len: 4096})
		}
		var es [16]CQE
		for seen := 0; seen < b.N; {
			n := cqb.WaitPoll(p, es[:])
			seen += n
			for i := 0; i < n; i++ {
				qpb.PostRecv(p, RecvWR{MR: mr, Len: 4096})
			}
		}
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		mr := r.devs[0].RegisterMRNoCost(buf)
		var es [16]CQE
		for i := 0; i < b.N; {
			err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 4096})
			switch err {
			case nil:
				i++
			case ErrSQFull:
				cqa.WaitPoll(p, es[:])
			default:
				b.Error(err)
				return
			}
		}
		for qpa.Outstanding() > 0 {
			cqa.WaitPoll(p, es[:])
		}
	})
	b.ResetTimer()
	if err := r.sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestMulticastDeliversToAllMembers(t *testing.T) {
	r := newRig(t, 4)
	const mgid = 7
	type member struct {
		qp  *QP
		cq  *CQ
		buf []byte
	}
	members := make([]member, 3) // nodes 1..3 join; node 0 sends
	for i := range members {
		node := i + 1
		cq := r.devs[node].CreateCQ(16)
		qp := r.devs[node].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq, RecvCQ: cq})
		if err := r.devs[node].AttachMulticast(qp, mgid); err != nil {
			t.Fatal(err)
		}
		members[i] = member{qp: qp, cq: cq, buf: make([]byte, GRHSize+4096)}
	}
	scq := r.devs[0].CreateCQ(16)
	sqp := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: scq, RecvCQ: scq})

	got := make([]string, 3)
	for i := range members {
		i := i
		r.sim.Spawn("recv", func(p *sim.Proc) {
			m := members[i]
			mr := r.devs[i+1].RegisterMRNoCost(m.buf)
			if err := m.qp.PostRecv(p, RecvWR{MR: mr, Len: len(m.buf)}); err != nil {
				t.Error(err)
				return
			}
			var es [1]CQE
			m.cq.WaitPoll(p, es[:])
			got[i] = string(m.buf[GRHSize : GRHSize+es[0].Bytes-GRHSize])
			if es[0].SrcNode != 0 {
				t.Errorf("member %d: src node %d", i, es[0].SrcNode)
			}
		})
	}
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		msg := []byte("multicast payload")
		mr := r.devs[0].RegisterMRNoCost(msg)
		err := sqp.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: len(msg),
			Dest: AH{Multicast: true, MGID: mgid}})
		if err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		scq.WaitPoll(p, es[:]) // exactly one completion for the group send
		if sqp.Outstanding() != 0 {
			t.Error("multicast send should consume one SQ slot")
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != "multicast payload" {
			t.Fatalf("member %d got %q", i, g)
		}
	}
	// One uplink transmission at the sender regardless of group size.
	if tx := r.net.Stats(0).TxMessages; tx != 1 {
		t.Fatalf("sender transmitted %d messages, want 1", tx)
	}
}

func TestAttachMulticastRejectsRC(t *testing.T) {
	r := newRig(t, 2)
	cq := r.devs[0].CreateCQ(4)
	rc := r.devs[0].CreateQP(QPConfig{Type: fabric.RC, SendCQ: cq, RecvCQ: cq})
	if err := r.devs[0].AttachMulticast(rc, 1); err != ErrBadOp {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
}

func TestUDRejectedOnIWARP(t *testing.T) {
	r := newRig(t, 1, func(p *fabric.Profile) { p.SupportsUD = false; p.Name = "iWARP" })
	cq := r.devs[0].CreateCQ(4)
	defer func() {
		if recover() == nil {
			t.Fatal("UD QP on a UD-less transport must panic")
		}
	}()
	r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq, RecvCQ: cq})
}
