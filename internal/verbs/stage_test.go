package verbs

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestRCSendStagedByReference pins what QP.stage copies. A non-inline RC
// Send holds a reference to the registered bytes — the post allocates a
// message and a few closures, not a second copy of the payload — and the
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
