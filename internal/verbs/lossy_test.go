package verbs

import (
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// rocev2 swaps the rig's profile for the lossy RoCEv2 tier with the
// simulation's own randomness disabled, so tests see only deterministic
// congestion behaviour.
func rocev2(p *fabric.Profile) {
	*p = fabric.RoCEv2Lossy()
	p.UDReorderProb = 0
	p.UDLossRate = 0
}

// TestECNCNPRateCutRoundTrip drives a paced 3-into-1 RDMA-write incast under
// RoCEv2Lossy and follows one congestion signal end to end in virtual time:
// the congested egress marks an admitted packet (ECN), the receiver NIC
// answers with a CNP no earlier than the mark, and the sender NIC cuts its
// per-QP rate no earlier than one propagation delay after the CNP flew back.
// Every write must still complete successfully.
func TestECNCNPRateCutRoundTrip(t *testing.T) {
	r := newRig(t, 4, rocev2)
	events := r.trace(1 << 16)
	prof := r.net.Prof

	const perSender = 40
	const payload = 16 << 10
	wire := prof.WireBytes(payload, fabric.RC)
	gap := fabric.Serialize(wire, prof.LinkBandwidth) * 5 / 4 // 0.8x line rate each

	sink := make([]byte, payload)
	rmr := r.devs[3].RegisterMRNoCost(sink)
	completed := 0
	for src := 0; src < 3; src++ {
		qp, _, cq, _ := r.rcPair(src, 3)
		dev := r.devs[src]
		r.sim.Spawn("writer", func(p *sim.Proc) {
			buf := make([]byte, payload)
			mr := dev.RegisterMRNoCost(buf)
			for i := 0; i < perSender; i++ {
				err := qp.PostSend(p, SendWR{ID: uint64(i), Op: OpWrite, MR: mr,
					Len: payload, RemoteKey: rmr.RKey})
				if err != nil {
					t.Error(err)
					return
				}
				p.Sleep(gap)
			}
			var es [8]CQE
			for done := 0; done < perSender; {
				n := cq.WaitPoll(p, es[:])
				for _, e := range es[:n] {
					if e.Status != WCSuccess {
						t.Errorf("write completion %+v, want success", e)
					}
				}
				done += n
				completed += n
			}
		})
	}
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 3*perSender {
		t.Fatalf("completed %d of %d writes", completed, 3*perSender)
	}

	recv := r.devs[3].Stats()
	if recv.CNPsSent == 0 {
		t.Fatal("congested receiver generated no CNPs")
	}
	var gotCNPs, cuts int64
	for src := 0; src < 3; src++ {
		st := r.devs[src].Stats()
		gotCNPs += st.CNPsReceived
		cuts += st.RateCuts
	}
	if gotCNPs == 0 || cuts == 0 {
		t.Fatalf("CNPsReceived = %d, RateCuts = %d: DCQCN loop never closed", gotCNPs, cuts)
	}
	if gotCNPs > recv.CNPsSent {
		t.Fatalf("received %d CNPs but only %d were sent", gotCNPs, recv.CNPsSent)
	}

	// The signal chain is causal in virtual time: mark <= CNP <= cut, with
	// at least one propagation delay between the CNP leaving the receiver
	// and the cut landing on the sender.
	var tMark, tCNP, tCut sim.Time
	for _, e := range events() {
		switch e.Name {
		case telemetry.EvECNMark:
			if tMark == 0 {
				tMark = e.At
			}
		case telemetry.EvCNP:
			if tCNP == 0 {
				tCNP = e.At
			}
		case telemetry.EvRateCut:
			if tCut == 0 && e.B == 1 {
				tCut = e.At
			}
		}
	}
	if tMark == 0 || tCNP == 0 || tCut == 0 {
		t.Fatalf("missing trace events: mark %v, cnp %v, cut %v", tMark, tCNP, tCut)
	}
	if !(tMark <= tCNP && tCNP <= tCut) {
		t.Fatalf("causality violated: mark %v, cnp %v, cut %v", tMark, tCNP, tCut)
	}
	if tCut < tCNP.Add(prof.PropagationDelay) {
		t.Fatalf("rate cut at %v, before the CNP could fly back (cnp %v + prop %v)",
			tCut, tCNP, prof.PropagationDelay)
	}
}

// TestRCTailDropRetransmitRecovery pre-posts a write burst far too large for
// the switch buffer: packets tail-drop, the per-QP go-back-N engine replays
// them after the ACK timeout through the DCQCN pacer, and every write still
// completes successfully — loss shows up only as bounded retries, never as a
// hang or an error.
func TestRCTailDropRetransmitRecovery(t *testing.T) {
	r := newRig(t, 4, rocev2)
	const perSender = 12
	const payload = 64 << 10

	sink := make([]byte, payload)
	rmr := r.devs[3].RegisterMRNoCost(sink)
	completed := 0
	for src := 0; src < 3; src++ {
		qp, _, cq, _ := r.rcPair(src, 3)
		dev := r.devs[src]
		r.sim.Spawn("burst", func(p *sim.Proc) {
			buf := make([]byte, payload)
			mr := dev.RegisterMRNoCost(buf)
			for i := 0; i < perSender; i++ {
				err := qp.PostSend(p, SendWR{ID: uint64(i), Op: OpWrite, MR: mr,
					Len: payload, RemoteKey: rmr.RKey})
				if err != nil {
					t.Error(err)
					return
				}
			}
			var es [8]CQE
			for done := 0; done < perSender; {
				n := cq.WaitPoll(p, es[:])
				for _, e := range es[:n] {
					if e.Status != WCSuccess {
						t.Errorf("completion %+v, want success after retransmit", e)
					}
				}
				done += n
				completed += n
			}
		})
	}
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 3*perSender {
		t.Fatalf("completed %d of %d writes", completed, 3*perSender)
	}
	if drops := r.net.Stats(3).TailDrops; drops == 0 {
		t.Fatal("the burst was supposed to overrun the buffer")
	}
	var retries int64
	for src := 0; src < 3; src++ {
		retries += r.devs[src].Stats().TransportRetries
	}
	if retries == 0 {
		t.Fatal("drops without transport retries: recovery path untested")
	}
	if r.net.Stats(3).TailDrops > retries {
		t.Fatalf("%d tail drops but only %d retries: some loss was never replayed",
			r.net.Stats(3).TailDrops, retries)
	}
}

// TestUDOverrunDropsSilently floods one port with pre-posted UD datagrams:
// the overrun tail-drops silently — send completions all succeed (fire on
// the wire, UD semantics), no QP errors anywhere, and the receiver simply
// sees fewer datagrams than were sent.
func TestUDOverrunDropsSilently(t *testing.T) {
	r := newRig(t, 4, rocev2)
	const perSender = 80
	payload := r.net.Prof.MTU

	dcq := r.devs[3].CreateCQ(4096)
	dst := r.devs[3].CreateQP(QPConfig{Type: fabric.UD, SendCQ: dcq, RecvCQ: dcq, MaxRecv: 4096})
	sent, completedOK := 0, 0
	var srcQPs []*QP
	for src := 0; src < 3; src++ {
		cq := r.devs[src].CreateCQ(4096)
		qp := r.devs[src].CreateQP(QPConfig{Type: fabric.UD, SendCQ: cq, RecvCQ: cq, MaxSend: 4096})
		srcQPs = append(srcQPs, qp)
		dev := r.devs[src]
		r.sim.Spawn("flood", func(p *sim.Proc) {
			buf := make([]byte, payload)
			mr := dev.RegisterMRNoCost(buf)
			for i := 0; i < perSender; i++ {
				err := qp.PostSend(p, SendWR{ID: uint64(i), Op: OpSend, MR: mr, Len: payload,
					Dest: AH{Node: 3, QPN: dst.QPN()}})
				if err != nil {
					t.Error(err)
					return
				}
				sent++
			}
			var es [16]CQE
			for done := 0; done < perSender; {
				n := cq.WaitPoll(p, es[:])
				for _, e := range es[:n] {
					if e.Status != WCSuccess {
						t.Errorf("UD send completion %+v, want success even when dropped", e)
					}
				}
				done += n
				completedOK += n
			}
		})
	}
	r.sim.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, (GRHSize+payload)*perSender*3)
		mr := r.devs[3].RegisterMRNoCost(buf)
		for i := 0; i < perSender*3; i++ {
			if err := dst.PostRecv(p, RecvWR{ID: uint64(i), MR: mr,
				Offset: i * (GRHSize + payload), Len: GRHSize + payload}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if completedOK != sent || sent != 3*perSender {
		t.Fatalf("send completions %d, sent %d, want %d successful", completedOK, sent, 3*perSender)
	}
	port := r.net.Stats(3)
	if port.TailDrops == 0 {
		t.Fatal("pre-posted UD flood did not overrun the buffer")
	}
	if port.UDDropped < port.TailDrops {
		t.Fatalf("UDDropped %d < TailDrops %d: drops must be accounted as UD loss",
			port.UDDropped, port.TailDrops)
	}
	gotRecvs := r.devs[3].Stats().RecvsCompleted
	if want := int64(3*perSender) - port.TailDrops; gotRecvs != want {
		t.Fatalf("receiver completed %d datagrams, want %d (sent %d - dropped %d)",
			gotRecvs, want, 3*perSender, port.TailDrops)
	}
	for _, qp := range srcQPs {
		if qp.State() == QPError {
			t.Fatal("UD overrun must never error a QP")
		}
	}
	if dst.State() == QPError {
		t.Fatal("receiver QP errored on a silent overrun")
	}
}
