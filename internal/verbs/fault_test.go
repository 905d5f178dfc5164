package verbs

import (
	"errors"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestRNRRetryExhaustionErrorsQP posts a send whose peer never posts a
// receive: after rnr_retry attempts the sender must surface a
// WCRNRRetryExceeded completion, transition the QP to the Error state, and
// reject further posts with ErrQPError.
func TestRNRRetryExhaustionErrorsQP(t *testing.T) {
	r := newRig(t, 2)
	qpa, _, cqa, _ := r.rcPair(0, 1)
	var got CQE
	r.sim.Spawn("send", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := qpa.PostSend(p, SendWR{ID: 9, Op: OpSend, MR: mr, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
		got = es[0]
		if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 64}); !errors.Is(err, ErrQPError) {
			t.Errorf("post after error = %v, want ErrQPError", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Status != WCRNRRetryExceeded || got.WRID != 9 {
		t.Fatalf("completion = %+v, want WCRNRRetryExceeded for WRID 9", got)
	}
	if got.Err() == nil {
		t.Fatal("failed completion should carry an error")
	}
	if qpa.State() != QPError {
		t.Fatalf("QP state = %v, want QPError", qpa.State())
	}
	// The responder generates the RNR NAKs and counts them; the requester
	// counts its QP error.
	if rnr := r.devs[1].Stats().RNRRetries; rnr == 0 {
		t.Fatal("want RNR retries counted on the responder")
	}
	if st := r.devs[0].Stats(); st.QPErrors == 0 {
		t.Fatalf("stats = %+v, want a QP error counted", st)
	}
}

// TestTransportRetryExhaustion cuts the link under an in-flight send: the
// NIC retransmits retry_cnt times, then completes the WR with
// WCRetryExceeded and errors the QP.
func TestTransportRetryExhaustion(t *testing.T) {
	r := newRig(t, 2)
	r.net.Faults().Add(fabric.FaultRule{
		Class: fabric.FaultRCLoss, From: fabric.AnyNode, To: 1,
	})
	qpa, qpb, cqa, _ := r.rcPair(0, 1)
	var got CQE
	r.sim.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[1].RegisterMRNoCost(buf)
		if err := qpb.PostRecv(p, RecvWR{MR: mr, Len: 64}); err != nil {
			t.Error(err)
		}
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := qpa.PostSend(p, SendWR{ID: 4, Op: OpSend, MR: mr, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
		got = es[0]
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Status != WCRetryExceeded || got.WRID != 4 {
		t.Fatalf("completion = %+v, want WCRetryExceeded for WRID 4", got)
	}
	if qpa.State() != QPError {
		t.Fatalf("QP state = %v, want QPError", qpa.State())
	}
	if st := r.devs[0].Stats(); st.TransportRetries == 0 {
		t.Fatalf("stats = %+v, want transport retries counted", st)
	}
}

// TestQPErrorFlushesPostedWork errors a QP that still holds posted receives:
// every one of them must be flushed with a WCFlushErr completion — exactly
// once — and later receive posts must fail with ErrQPError.
func TestQPErrorFlushesPostedWork(t *testing.T) {
	r := newRig(t, 2)
	qpa, qpb, _, cqb := r.rcPair(0, 1)
	_ = qpa // node 0 never posts a receive, so qpb's send exhausts RNR retries
	var es []CQE
	r.sim.Spawn("victim", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[1].RegisterMRNoCost(buf)
		for i := 0; i < 2; i++ {
			if err := qpb.PostRecv(p, RecvWR{ID: uint64(100 + i), MR: mr, Len: 64}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := qpb.PostSend(p, SendWR{ID: 5, Op: OpSend, MR: mr, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		var e [8]CQE
		for len(es) < 3 {
			es = append(es, e[:cqb.WaitPoll(p, e[:])]...)
		}
		if err := qpb.PostRecv(p, RecvWR{MR: mr, Len: 64}); !errors.Is(err, ErrQPError) {
			t.Errorf("post after flush = %v, want ErrQPError", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("got %d completions, want 3: %+v", len(es), es)
	}
	flushed := map[uint64]bool{}
	for _, e := range es {
		switch {
		case e.WRID == 5:
			if e.Status != WCRNRRetryExceeded {
				t.Fatalf("send completion = %+v, want WCRNRRetryExceeded", e)
			}
		case e.Op == OpRecv && e.Status == WCFlushErr:
			if flushed[e.WRID] {
				t.Fatalf("receive %d flushed twice", e.WRID)
			}
			flushed[e.WRID] = true
		default:
			t.Fatalf("unexpected completion %+v", e)
		}
	}
	if !flushed[100] || !flushed[101] {
		t.Fatalf("posted receives not flushed: %+v", es)
	}
}
