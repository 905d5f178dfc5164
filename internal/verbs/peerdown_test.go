package verbs

import (
	"errors"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestNotifyPeerDownErrorsConnectedQPs delivers a connection-manager
// disconnect event for node 1: every connected RC QP toward that peer must
// move to the Error state with its in-flight sends completed as WCPeerDown
// and its posted receives flushed, while QPs toward other peers stay alive.
func TestNotifyPeerDownErrorsConnectedQPs(t *testing.T) {
	r := newRig(t, 3)
	qp01, qp10, cq0, _ := r.rcPair(0, 1)
	qp02, _, _, _ := r.rcPair(0, 2)
	_ = qp10
	var es []CQE
	r.sim.Spawn("victim", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := qp01.PostRecv(p, RecvWR{ID: 7, MR: mr, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		// The peer never answers; the disconnect event arrives first.
		if err := qp01.PostSend(p, SendWR{ID: 8, Op: OpSend, MR: mr, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		var e [8]CQE
		for len(es) < 2 {
			es = append(es, e[:cq0.WaitPoll(p, e[:])]...)
		}
	})
	r.sim.Spawn("cm", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		r.devs[0].NotifyPeerDown(1)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		switch e.WRID {
		case 8:
			if e.Status != WCPeerDown {
				t.Fatalf("send completion = %+v, want WCPeerDown", e)
			}
			if e.Err() == nil {
				t.Fatal("WCPeerDown completion should carry an error")
			}
		case 7:
			if e.Status != WCFlushErr || e.Op != OpRecv {
				t.Fatalf("recv completion = %+v, want flushed", e)
			}
		default:
			t.Fatalf("unexpected completion %+v", e)
		}
	}
	if qp01.State() != QPError {
		t.Fatalf("QP to the dead peer: state = %v, want QPError", qp01.State())
	}
	if qp02.State() == QPError {
		t.Fatal("QP to a healthy peer was torn down")
	}
	if !r.devs[0].PeerDown(1) || r.devs[0].PeerDown(2) {
		t.Fatal("PeerDown bookkeeping wrong")
	}
}

// TestPostToDeadPeerFailsFast posts to a peer already declared down: both
// PostSend and PostRecv must fail immediately with ErrPeerDown instead of
// letting work requests sink into a dead connection.
func TestPostToDeadPeerFailsFast(t *testing.T) {
	r := newRig(t, 2)
	qpa, _, _, _ := r.rcPair(0, 1)
	r.devs[0].NotifyPeerDown(1)
	r.sim.Spawn("post", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: mr, Len: 64}); !errors.Is(err, ErrPeerDown) {
			t.Errorf("PostSend = %v, want ErrPeerDown", err)
		}
		if err := qpa.PostRecv(p, RecvWR{MR: mr, Len: 64}); !errors.Is(err, ErrPeerDown) {
			t.Errorf("PostRecv = %v, want ErrPeerDown", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNotifyPeerDownHandlersAndIdempotence registers disconnect handlers
// and fires the event twice: handlers run once each, in registration order,
// and UD QPs (no peer binding) are untouched.
func TestNotifyPeerDownHandlersAndIdempotence(t *testing.T) {
	r := newRig(t, 2)
	cq := r.devs[0].CreateCQ(16)
	ud := r.devs[0].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq, RecvCQ: cq})
	var order []int
	r.devs[0].OnPeerDown(func(peer int) { order = append(order, 1) })
	r.devs[0].OnPeerDown(func(peer int) { order = append(order, 2) })
	r.devs[0].NotifyPeerDown(1)
	r.devs[0].NotifyPeerDown(1) // repeat disconnect event: no double teardown
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("handler order = %v, want [1 2] exactly once", order)
	}
	if ud.State() == QPError {
		t.Fatal("UD QP has no peer and must survive a peer-down event")
	}
}

// TestPeerDownCancelsPendingRetransmit races the per-QP retransmission
// timer against a connection-manager disconnect: a send is dropped by the
// fabric (arming the go-back-N timer), then the peer is declared down well
// before the local ACK timeout expires. The pending timer must be cancelled
// outright — the lost window discarded, the WR completed as WCPeerDown, and
// nothing retransmitted into the torn-down QP when the timeout would have
// fired.
func TestPeerDownCancelsPendingRetransmit(t *testing.T) {
	r := newRig(t, 2)
	// Drop exactly the first RC packet toward the peer.
	r.net.Faults().Add(fabric.FaultRule{
		Class: fabric.FaultRCLoss, From: 0, To: 1, Count: 1,
	})
	qpa, _, cqa, _ := r.rcPair(0, 1)
	retryDelay := r.net.Prof.TransportRetryDelay

	sink := make([]byte, 64)
	rmr := r.devs[1].RegisterMRNoCost(sink)
	var got CQE
	var txAfterTeardown int64
	r.sim.Spawn("race", func(p *sim.Proc) {
		buf := make([]byte, 64)
		mr := r.devs[0].RegisterMRNoCost(buf)
		if err := qpa.PostSend(p, SendWR{ID: 21, Op: OpWrite, MR: mr, Len: 64,
			RemoteKey: rmr.RKey}); err != nil {
			t.Error(err)
			return
		}
		// Let the drop land and arm the retransmission timer, then tear the
		// peer down long before the ACK timeout would fire.
		p.Sleep(50 * time.Microsecond)
		if !qpa.retx.armed || len(qpa.retx.window) != 1 {
			t.Errorf("retx engine not armed before teardown: armed=%v window=%d",
				qpa.retx.armed, len(qpa.retx.window))
		}
		r.devs[0].NotifyPeerDown(1)
		if qpa.retx.armed || qpa.retx.window != nil {
			t.Error("peer-down left the retransmission timer armed")
		}
		txAfterTeardown = r.net.Stats(0).TxMessages
		var es [1]CQE
		cqa.WaitPoll(p, es[:])
		got = es[0]
		// Outlive the original timer deadline: a stale firing must not
		// replay the lost window.
		p.Sleep(2 * retryDelay)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Status != WCPeerDown || got.WRID != 21 {
		t.Fatalf("completion = %+v, want WCPeerDown for WRID 21", got)
	}
	if tx := r.net.Stats(0).TxMessages; tx != txAfterTeardown {
		t.Fatalf("node 0 transmitted %d messages after teardown (was %d): stale retransmit fired",
			tx, txAfterTeardown)
	}
	if qpa.State() != QPError {
		t.Fatalf("QP state = %v, want QPError", qpa.State())
	}
}
