package verbs

import (
	"bytes"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestStaleEpochWriteFenced pins the epoch fence: an RDMA Write posted on a
// QP connected before the responder rebooted must be rejected at the
// responder — the memory stays untouched, the stale_fenced counter rises,
// and the writer's QP breaks with WCFenced rather than WCSuccess.
func TestStaleEpochWriteFenced(t *testing.T) {
	r := newRig(t, 2)
	qpa, _, cqa, _ := r.rcPair(0, 1)

	remote := make([]byte, 64)
	rmr := r.devs[1].RegisterMRNoCost(remote)

	var got CQE
	r.sim.Spawn("writer", func(p *sim.Proc) {
		// The responder reboots after the connection exchange: its memory is
		// wiped and its boot epoch advances past the one qpa captured.
		r.devs[1].BumpEpoch()
		local := []byte("stale epoch payload bits")
		lmr := r.devs[0].RegisterMRNoCost(local)
		err := qpa.PostSend(p, SendWR{ID: 9, Op: OpWrite, MR: lmr, Len: len(local),
			RemoteKey: rmr.RKey, RemoteOffset: 0})
		if err != nil {
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
	if got.Status != WCFenced {
		t.Fatalf("writer completion = %v, want WCFenced", got.Status)
	}
	if !bytes.Equal(remote, make([]byte, 64)) {
		t.Fatalf("responder memory modified by stale-epoch write: %q", remote)
	}
	if n := r.devs[1].Stats().StaleFenced; n != 1 {
		t.Fatalf("responder stale_fenced = %d, want 1", n)
	}
	if qpa.State() != QPError {
		t.Fatalf("stale writer QP state = %v, want QPError", qpa.State())
	}
}

// TestStaleEpochSendAndReadFenced covers the two other responder paths:
// an RC Send and an RDMA Read from a stale-epoch QP are both fenced.
func TestStaleEpochSendAndReadFenced(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Opcode
	}{{"send", OpSend}, {"read", OpRead}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2)
			qpa, qpb, cqa, _ := r.rcPair(0, 1)

			remote := make([]byte, 64)
			rmr := r.devs[1].RegisterMRNoCost(remote)

			var got CQE
			r.sim.Spawn("responder", func(p *sim.Proc) {
				if tc.op == OpSend {
					buf := make([]byte, 64)
					mr := r.devs[1].RegisterMRNoCost(buf)
					// The receive may never complete; post and walk away.
					_ = qpb.PostRecv(p, RecvWR{ID: 1, MR: mr, Len: 64})
				}
			})
			r.sim.Spawn("requester", func(p *sim.Proc) {
				p.Sleep(time.Microsecond)
				r.devs[1].BumpEpoch()
				local := make([]byte, 32)
				lmr := r.devs[0].RegisterMRNoCost(local)
				wr := SendWR{ID: 5, Op: tc.op, MR: lmr, Len: 32}
				if tc.op == OpRead {
					wr.RemoteKey = rmr.RKey
				}
				if err := qpa.PostSend(p, wr); err != nil {
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
			if got.Status != WCFenced {
				t.Fatalf("completion = %v, want WCFenced", got.Status)
			}
			if n := r.devs[1].Stats().StaleFenced; n != 1 {
				t.Fatalf("stale_fenced = %d, want 1", n)
			}
		})
	}
}

// TestReconnectRCPairAfterReboot exercises the connection-manager loop: a
// peer goes dark for a bounded reboot window, the CM retries with backoff
// until the port is back, and the fresh QP pair carries the new epoch so
// traffic flows again.
func TestReconnectRCPairAfterReboot(t *testing.T) {
	r := newRig(t, 2)
	r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultReboot, To: 1,
		Start: sim.Time(0).Add(5 * time.Microsecond), End: sim.Time(0).Add(200 * time.Microsecond)})
	qpa, _, _, _ := r.rcPair(0, 1)

	var newA, newB *QP
	var reconnectErr error
	r.sim.Spawn("cm", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond) // inside the reboot window
		r.devs[0].NotifyPeerDown(1)
		cq := r.devs[0].CreateCQ(64)
		cqb := r.devs[1].CreateCQ(64)
		newA, newB, reconnectErr = ReconnectRCPair(p,
			r.devs[0], r.devs[1],
			QPConfig{Type: fabric.RC, SendCQ: cq, RecvCQ: cq},
			QPConfig{Type: fabric.RC, SendCQ: cqb, RecvCQ: cqb},
			ReconnectPolicy{MaxAttempts: 16, BaseBackoff: 20 * time.Microsecond})
		if reconnectErr != nil {
			return
		}
		// The new pair is live and fenced at the post-reboot epoch.
		buf := []byte("post-reboot hello")
		mr := r.devs[0].RegisterMRNoCost(buf)
		rbuf := make([]byte, 64)
		rmr := r.devs[1].RegisterMRNoCost(rbuf)
		if err := newB.PostRecv(p, RecvWR{ID: 1, MR: rmr, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		if err := newA.PostSend(p, SendWR{ID: 2, Op: OpSend, MR: mr, Len: len(buf)}); err != nil {
			t.Error(err)
			return
		}
		var es [1]CQE
		newA.cfg.SendCQ.WaitPoll(p, es[:])
		if es[0].Status != WCSuccess {
			t.Errorf("post-reconnect send status = %v", es[0].Status)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if reconnectErr != nil {
		t.Fatalf("reconnect failed: %v", reconnectErr)
	}
	if r.devs[0].PeerDown(1) {
		t.Fatal("peer 1 still marked down after reconnect")
	}
	if r.devs[0].Stats().Reconnects != 1 || r.devs[1].Stats().Reconnects != 1 {
		t.Fatalf("reconnect counters = %d/%d, want 1/1",
			r.devs[0].Stats().Reconnects, r.devs[1].Stats().Reconnects)
	}
	// The new pair captured the post-reboot epoch, not the stale one.
	if newA.peerEpoch != r.devs[1].Epoch() {
		t.Fatalf("new QP peer epoch = %d, responder epoch = %d", newA.peerEpoch, r.devs[1].Epoch())
	}
	// The pre-reboot QP is stale by construction once the epoch advances.
	if qpa.peerEpoch == r.devs[1].Epoch() && r.devs[1].Epoch() > 1 {
		t.Fatal("stale QP should not match the post-reboot epoch")
	}
}

// TestReconnectRCPairExhausted pins the bounded-failure contract: while the
// peer never becomes reachable the loop must stop after MaxAttempts with
// ErrReconnectFailed, not spin forever.
func TestReconnectRCPairExhausted(t *testing.T) {
	r := newRig(t, 2)
	r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultCrash, To: 1,
		Start: sim.Time(0).Add(time.Microsecond)})
	var err error
	r.sim.Spawn("cm", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		r.devs[0].NotifyPeerDown(1)
		cq := r.devs[0].CreateCQ(8)
		cqb := r.devs[1].CreateCQ(8)
		_, _, err = ReconnectRCPair(p, r.devs[0], r.devs[1],
			QPConfig{Type: fabric.RC, SendCQ: cq, RecvCQ: cq},
			QPConfig{Type: fabric.RC, SendCQ: cqb, RecvCQ: cqb},
			ReconnectPolicy{MaxAttempts: 4})
	})
	if e := r.sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrReconnectFailed {
		t.Fatalf("err = %v, want ErrReconnectFailed", err)
	}
	if r.devs[0].PeerDown(1) != true {
		t.Fatal("peer should remain down after exhausted reconnect")
	}
}
