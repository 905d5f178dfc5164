package verbs

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestRCSendStagedByReference pins what QP.stage copies. A non-inline RC
// Send holds a reference to the registered bytes — the post allocates the
// message's record, not a second copy of the payload — and the
// receiver still gets exactly what was posted, because the sender owns the
// buffer again only after the completion, which follows delivery.
func TestRCSendStagedByReference(t *testing.T) {
	const size = 64 << 10
	r := newRig(t, 2)
	qpa, qpb, cqa, cqb := r.rcPair(0, 1)
	rbuf := make([]byte, 2*size)
	r.sim.Spawn("recv", func(p *sim.Proc) {
		mr := r.devs[1].RegisterMRNoCost(rbuf)
		for i := 0; i < 2; i++ {
			if err := qpb.PostRecv(p, RecvWR{MR: mr, Offset: i * size, Len: size}); err != nil {
				t.Error(err)
			}
		}
		var es [1]CQE
		for i := 0; i < 2; i++ {
			cqb.WaitPoll(p, es[:])
		}
	})
	var posted uint64
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // let the receives get posted
		sbuf := make([]byte, size)
		mr := r.devs[0].RegisterMRNoCost(sbuf)
		var es [1]CQE
		var before, after runtime.MemStats
		for i := 0; i < 2; i++ { // the first send warms the kernel's pools
			for j := range sbuf {
				sbuf[j] = byte(j*7 + i)
			}
			runtime.ReadMemStats(&before)
			if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: size}); err != nil {
				t.Error(err)
			}
			runtime.ReadMemStats(&after)
			posted = after.TotalAlloc - before.TotalAlloc
			cqa.WaitPoll(p, es[:])
			// Completed: the buffer is the sender's again, and rewriting it
			// must not reach a receiver that already has its bytes.
			for j := range sbuf {
				sbuf[j] = 0xEE
			}
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if posted >= 1<<10 {
		t.Errorf("a %d-byte RC Send post allocated %d bytes, want < 1 KiB (payload copied?)", size, posted)
	}
	for i := 0; i < 2; i++ {
		for j, b := range rbuf[i*size : (i+1)*size] {
			if b != byte(j*7+i) {
				t.Fatalf("message %d byte %d = %#x, want %#x", i, j, b, byte(j*7+i))
			}
		}
	}
}

// TestInlineAndUDPostsSnapshot: an inline payload travels in the WQE and a
// UD send completes before it is delivered, so both must survive the sender
// overwriting its buffer the moment the post returns.
func TestInlineAndUDPostsSnapshot(t *testing.T) {
	r := newRig(t, 2)
	qpa, qpb, _, cqb := r.rcPair(0, 1)
	cq0 := r.devs[0].CreateCQ(64)
	cq1 := r.devs[1].CreateCQ(64)
	ud0 := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq0, RecvCQ: cq0})
	ud1 := r.devs[1].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq1, RecvCQ: cq1})
	const inl, dgram = 64, 2048
	rcBuf := make([]byte, inl)
	udBuf := make([]byte, GRHSize+dgram)
	r.sim.Spawn("recv", func(p *sim.Proc) {
		if err := qpb.PostRecv(p, RecvWR{MR: r.devs[1].RegisterMRNoCost(rcBuf), Len: len(rcBuf)}); err != nil {
			t.Error(err)
		}
		if err := ud1.PostRecv(p, RecvWR{MR: r.devs[1].RegisterMRNoCost(udBuf), Len: len(udBuf)}); err != nil {
			t.Error(err)
		}
		var es [1]CQE
		cqb.WaitPoll(p, es[:])
		cq1.WaitPoll(p, es[:])
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		sbuf := bytes.Repeat([]byte{0xAB}, dgram)
		mr := r.devs[0].RegisterMRNoCost(sbuf)
		if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: inl, Inline: true}); err != nil {
			t.Error(err)
		}
		if err := ud0.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: dgram,
			Dest: AH{Node: 1, QPN: ud1.QPN()}}); err != nil {
			t.Error(err)
		}
		for j := range sbuf {
			sbuf[j] = 0xEE // both messages are still in flight
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte{0xAB}, inl); !bytes.Equal(rcBuf, want) {
		t.Errorf("inline RC send delivered the overwritten buffer: % x ...", rcBuf[:8])
	}
	if want := bytes.Repeat([]byte{0xAB}, dgram); !bytes.Equal(udBuf[GRHSize:], want) {
		t.Errorf("UD send delivered the overwritten buffer: % x ...", udBuf[GRHSize:GRHSize+8])
	}
}

// snapsParked returns how many datagram records, each with its snapshot,
// the rig's devices hold on their free lists.
func (r *testRig) snapsParked() (n int) {
	for _, d := range r.devs {
		n += len(d.udFree)
	}
	return n
}

// poolMTUGets returns how many requests the pool's MTU-sized class has
// served: datagram snapshots are its only tenant in this package.
func poolMTUGets() int64 {
	for _, c := range bufpool.Stats() {
		if c.ClassBytes == 4096 {
			return c.Hits + c.Misses
		}
	}
	return 0
}

// TestMulticastPayloadIsNeverParked: one multicast payload is read by every
// member's delivery, so no delivery may hand it to a free list — the next
// unicast send would write its own bytes over what the remaining members
// have yet to copy (under test the poisoning pool does so at once). A full
// MTU, the size a unicast snapshot is taken from the list at, goes to three
// members, two of them on one node, while the sender rewrites its buffer:
// every member gets the original bytes and nothing is parked anywhere.
func TestMulticastPayloadIsNeverParked(t *testing.T) {
	r := newRig(t, 3)
	const mgid, size = 11, 4096
	nodes := []int{1, 1, 2}
	bufs := make([][]byte, len(nodes))
	for i, node := range nodes {
		i, node := i, node
		cq := r.devs[node].CreateCQ(16)
		qp := r.devs[node].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq, RecvCQ: cq})
		if err := r.devs[node].AttachMulticast(qp, mgid); err != nil {
			t.Fatal(err)
		}
		bufs[i] = make([]byte, GRHSize+size)
		r.sim.Spawn("recv", func(p *sim.Proc) {
			if err := qp.PostRecv(p, RecvWR{MR: r.devs[node].RegisterMRNoCost(bufs[i]), Len: len(bufs[i])}); err != nil {
				t.Error(err)
				return
			}
			var es [1]CQE
			cq.WaitPoll(p, es[:])
		})
	}
	scq := r.devs[0].CreateCQ(16)
	sqp := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: scq, RecvCQ: scq})
	gets := poolMTUGets()
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		sbuf := bytes.Repeat([]byte{0xAB}, size)
		err := sqp.PostSend(p, SendWR{Op: OpSend, MR: r.devs[0].RegisterMRNoCost(sbuf), Len: size,
			Dest: AH{Multicast: true, MGID: mgid}})
		if err != nil {
			t.Error(err)
		}
		for j := range sbuf {
			sbuf[j] = 0xEE // the datagram has not left yet
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		if !bytes.Equal(b[GRHSize:], bytes.Repeat([]byte{0xAB}, size)) {
			t.Errorf("member %d (node %d) got % x ..., want the bytes that were posted", i, nodes[i], b[GRHSize:GRHSize+8])
		}
	}
	if n := r.snapsParked(); n != 0 {
		t.Errorf("%d snapshots parked after a multicast send, want none", n)
	}
	if n := poolMTUGets() - gets; n != 0 {
		t.Errorf("a multicast send drew %d buffers from the pool, want a plain allocation", n)
	}
}

// TestUDSnapshotsRecirculate: the snapshot of a unicast datagram moves to
// the destination's free list when it is delivered, and the destination's
// own sends take it from there. Ten thousand full-MTU datagrams bounced
// between two nodes, a window of them in flight, must draw no more than a
// window of snapshots from the pool, and every payload must arrive intact
// although the senders rewrite their buffers as soon as a post returns.
func TestUDSnapshotsRecirculate(t *testing.T) {
	const total, window, size = 10_000, 8, 4096
	r := newRig(t, 2)
	type end struct {
		qp       *QP
		scq, rcq *CQ
		ring     []byte
	}
	var ends [2]end
	for i := range ends {
		e := &ends[i]
		e.scq, e.rcq = r.devs[i].CreateCQ(4*window), r.devs[i].CreateCQ(4*window)
		e.qp = r.devs[i].CreateQP(QPConfig{Type: fabric.UD, SendCQ: e.scq, RecvCQ: e.rcq})
		e.ring = make([]byte, 2*window*(GRHSize+size))
	}
	gets := poolMTUGets()
	var before, after runtime.MemStats
	bounced := 0
	for i := range ends {
		i := i
		r.sim.Spawn("end", func(p *sim.Proc) {
			e, peer := &ends[i], AH{Node: 1 - i, QPN: ends[1-i].qp.QPN()}
			const slot = GRHSize + size
			rmr := r.devs[i].RegisterMRNoCost(e.ring)
			for s := 0; s < 2*window; s++ {
				if err := e.qp.PostRecv(p, RecvWR{ID: uint64(s), MR: rmr, Offset: s * slot, Len: slot}); err != nil {
					t.Error(err)
					return
				}
			}
			sbuf := make([]byte, size)
			smr := r.devs[i].RegisterMRNoCost(sbuf)
			var es [1]CQE
			send := func(seq byte) {
				for j := range sbuf {
					sbuf[j] = seq
				}
				if err := e.qp.PostSend(p, SendWR{Op: OpSend, MR: smr, Len: size, Dest: peer}); err != nil {
					t.Error(err)
				}
				for j := range sbuf {
					sbuf[j] = 0xEE
				}
				e.scq.WaitPoll(p, es[:])
			}
			p.Sleep(time.Microsecond) // both ends have their receives posted
			if i == 0 {
				runtime.ReadMemStats(&before)
				for k := 0; k < window; k++ {
					send(byte(k))
				}
			}
			// Each end bounces what it receives until total datagrams have
			// arrived at node 0; the datagrams still in flight then drain.
			for bounced < total {
				e.rcq.WaitPoll(p, es[:])
				s := int(es[0].WRID)
				got := e.ring[s*slot+GRHSize : (s+1)*slot]
				seq := got[0]
				if seq == 0xEE || bytes.Count(got, got[:1]) != size {
					t.Errorf("node %d: datagram arrived as % x ..., not as posted", i, got[:8])
					bounced = total
					return
				}
				if i == 0 {
					bounced++
				}
				if err := e.qp.PostRecv(p, RecvWR{ID: uint64(s), MR: rmr, Offset: s * slot, Len: slot}); err != nil {
					t.Error(err)
				}
				if bounced < total {
					send((seq + 1) & 0x7F) // never the 0xEE of a rewritten buffer
				}
			}
			if i == 0 {
				runtime.ReadMemStats(&after)
			}
		})
	}
	if err := r.sim.Run(); err != nil && bounced < total {
		t.Fatal(err)
	}
	if n := poolMTUGets() - gets; n > window {
		t.Errorf("%d datagrams drew %d snapshots from the pool, want at most the window of %d", total, n, window)
	}
	// Fresh snapshots alone would be 2 x 10 000 x 4 KiB = 80 MB.
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%.1f MB allocated", mb)
	if mb > 16 {
		t.Errorf("the exchange allocated %.1f MB, want what messages and completions cost", mb)
	}
}

// TestUDDatagramLoopAllocatesNothing: a unicast datagram is one record that
// the destination parks on its free list and reuses for its own sends, so
// two devices exchanging datagrams — post, deliver, poll, repost — allocate
// nothing once their lists are warm: no message, no closure, no snapshot.
func TestUDDatagramLoopAllocatesNothing(t *testing.T) {
	const rounds, size = 200, 4096 - GRHSize
	r := newRig(t, 2)
	type end struct {
		qp       *QP
		scq, rcq *CQ
		smr, rmr *MR
	}
	var ends [2]end
	for i := range ends {
		e := &ends[i]
		e.scq, e.rcq = r.devs[i].CreateCQ(8), r.devs[i].CreateCQ(8)
		e.qp = r.devs[i].CreateQP(QPConfig{Type: fabric.UD, SendCQ: e.scq, RecvCQ: e.rcq})
		e.smr = r.devs[i].RegisterMRNoCost(make([]byte, size))
		e.rmr = r.devs[i].RegisterMRNoCost(make([]byte, GRHSize+size))
	}
	// Each end sends one datagram to the other per round and waits for
	// the peer's: the two directions keep both free lists stocked.
	var bodies [2]func(*sim.Proc)
	for i := range ends {
		e, peer := &ends[i], &ends[1-i]
		bodies[i] = func(p *sim.Proc) {
			dest := AH{Node: 1 - i, QPN: peer.qp.QPN()}
			var es [1]CQE
			for k := 0; k < rounds; k++ {
				if err := e.qp.PostRecv(p, RecvWR{MR: e.rmr, Len: GRHSize + size}); err != nil {
					t.Error(err)
					return
				}
				if err := e.qp.PostSend(p, SendWR{Op: OpSend, MR: e.smr, Len: size, Dest: dest}); err != nil {
					t.Error(err)
					return
				}
				e.scq.WaitPoll(p, es[:])
				e.rcq.WaitPoll(p, es[:])
				if es[0].Status != WCSuccess || es[0].Bytes != GRHSize+size {
					t.Errorf("node %d: receive completion %+v", i, es[0])
					return
				}
			}
		}
	}
	run := func() {
		r.sim.Spawn("end0", bodies[0])
		r.sim.Spawn("end1", bodies[1])
		if err := r.sim.Run(); err != nil {
			t.Error(err)
		}
	}
	run() // warm the free lists, the queues and the kernel's pools
	if per := testing.AllocsPerRun(5, run) / (2 * rounds); per >= 0.1 {
		t.Errorf("%.2f objects allocated per datagram, want < 0.1", per)
	}
}
