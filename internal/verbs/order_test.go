package verbs

import (
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// TestRCOrderAcrossADrop: the Reliable Connection service delivers a QP's
// messages in the order they were posted, across a loss too. One injected
// loss takes the first of six back-to-back Sends; the five already on the
// wire behind it reach the receiver before the replay does and must not
// land ahead of it. Only the message the port dropped spends a retry
// attempt — the followers, discarded out of sequence, rejoin the replay
// window for free, so even retry_cnt = 1 survives.
func TestRCOrderAcrossADrop(t *testing.T) {
	r := newRig(t, 2, func(p *fabric.Profile) { p.RetryCount = 1 })
	events := r.trace(1 << 12)
	r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultRCLoss, From: 0, To: 1, Count: 1})
	qpa, qpb, cqa, cqb := r.rcPair(0, 1)
	const n = 6
	var landed []uint32
	r.sim.Spawn("recv", func(p *sim.Proc) {
		mr := r.devs[1].RegisterMRNoCost(make([]byte, n*64))
		for i := 0; i < n; i++ {
			if err := qpb.PostRecv(p, RecvWR{ID: uint64(i), MR: mr, Offset: i * 64, Len: 64}); err != nil {
				t.Error(err)
			}
		}
		var es [n]CQE
		for len(landed) < n {
			for _, e := range es[:cqb.WaitPoll(p, es[:])] {
				landed = append(landed, e.Imm)
			}
		}
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond) // receives are posted
		mr := r.devs[0].RegisterMRNoCost(make([]byte, 64))
		for i := 0; i < n; i++ {
			if err := qpa.PostSend(p, SendWR{ID: uint64(100 + i), Op: OpSend, MR: mr, Len: 64,
				Imm: uint32(i), HasImm: true}); err != nil {
				t.Error(err)
			}
		}
		var es [n]CQE
		for done := 0; done < n; {
			k := cqa.WaitPoll(p, es[:])
			for _, e := range es[:k] {
				if e.Status != WCSuccess {
					t.Errorf("send completion %+v, want success", e)
				}
			}
			done += k
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, imm := range landed {
		if imm != uint32(i) {
			t.Fatalf("messages landed in order %v, want posting order", landed)
		}
	}
	if got := r.devs[0].Stats().TransportRetries; got != n {
		t.Errorf("TransportRetries = %d, want %d: the dropped head and its %d followers all replay", got, n, n-1)
	}
	// The retry event records the attempts its message has spent so far.
	for _, e := range events() {
		if e.Name != telemetry.EvTransportRetry {
			continue
		}
		want := int64(0)
		if e.A == 100 {
			want = 1
		}
		if e.B != want {
			t.Errorf("message %d replayed having spent %d attempt(s), want %d", e.A, e.B, want)
		}
	}
}

// TestLostCNPLeavesTheFlowAlone: a congestion notification is fire-and-
// forget and carries no sequence number of the connection it reports on.
// Losing one must not open a hole in the flow travelling the same way: the
// Writes posted behind it land without a single retransmission.
func TestLostCNPLeavesTheFlowAlone(t *testing.T) {
	r := newRig(t, 2, rocev2)
	qpa, qpb, cqa, _ := r.rcPair(0, 1)
	rmr := r.devs[1].RegisterMRNoCost(make([]byte, 64))
	r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultRCLoss, From: 0, To: 1, Count: 1})
	const n = 4
	r.sim.Spawn("writer", func(p *sim.Proc) {
		// Node 0 saw a marked packet of qpb's flow: its CNP toward node 1 is
		// the one message the loss rule takes.
		r.devs[0].ecnMarked(1, qpb.cacheKey(), qpa.cacheKey())
		mr := r.devs[0].RegisterMRNoCost(make([]byte, 64))
		for i := 0; i < n; i++ {
			if err := qpa.PostSend(p, SendWR{ID: uint64(i), Op: OpWrite, MR: mr, Len: 64,
				RemoteKey: rmr.RKey}); err != nil {
				t.Error(err)
			}
		}
		var es [n]CQE
		for done := 0; done < n; {
			done += cqa.WaitPoll(p, es[:])
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats(1).RCDropped; got != 1 {
		t.Fatalf("RCDropped at node 1 = %d, want the one CNP", got)
	}
	if st := r.devs[1].Stats(); st.CNPsReceived != 0 || st.RemoteWrites != n {
		t.Errorf("node 1 received %d CNPs and %d writes, want 0 and %d", st.CNPsReceived, st.RemoteWrites, n)
	}
	if got := r.devs[0].Stats().TransportRetries; got != 0 {
		t.Errorf("TransportRetries = %d: the lost CNP disturbed the flow behind it", got)
	}
}
