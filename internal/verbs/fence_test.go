package verbs

import (
	"bytes"
	"testing"
	"time"

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
