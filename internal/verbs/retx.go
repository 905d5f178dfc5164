package verbs

import (
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// Per-QP transport retransmission: both halves of RC go-back-N. Real RC
// hardware numbers a QP's packets (PSNs); the responder accepts only the next
// one in sequence and NAKs the rest, and the requester keeps one
// retransmission timer per QP (the local ACK timeout) and, on expiry or NAK,
// rewinds the send pointer to the lost packet and replays from there. This
// file models that at message granularity instead of scheduling an
// independent timer per lost message. While the timer is pending, the QP's
// new data sends freeze behind the hole (see QP.sendPaced) and ship with the
// replay, so a loss stalls the whole pipeline for one ACK timeout — the
// dominant cost of running RoCE on a lossy fabric. The timer is cancellable:
// teardown paths (QP error, peer-down) stop the wheel timer in O(1)
// so a pending timer can never fire into a dead QP.

// retxState is one QP's retransmission engine.
type retxState struct {
	// sent numbers this QP's two outbound sequences in posting order: its
	// requests (Sends, Writes, Read requests), and its RDMA Reads, whose
	// responses come back as a sequence of their own — a lost response does
	// not hold up the peer's requests travelling the same way.
	sent [2]uint64
	// next is the receiving half: the sequence number this QP accepts next
	// from its peer's requests and from the responses to its own Reads. It is
	// only touched by deliveries to this QP's node, so it is safe on a
	// partitioned network.
	next [2]uint64
	// window is the lost window awaiting replay — messages reported dropped
	// or discarded out of sequence, plus data sends that reached the head of
	// the TX pipeline while the send pointer was rewound — sorted by sequence
	// number. Reports come home in arrival order, which stops being posting
	// order as soon as a replay of older messages is on the wire behind
	// younger ones; a replay that led with a younger message would have it
	// discarded and the timer re-armed before the older one got out, forever.
	window []replay
	// armed guards the single pending timer.
	armed bool
	// timer is the pending wheel timer handle (sim.Timer), cancelled by
	// cancelRetx.
	timer sim.Timer
}

// The two sequences of retxState.sent and retxState.next.
const (
	seqRequest = iota
	seqResponse
)

// replay is one message of the lost window with its sequence number.
type replay struct {
	psn uint64
	msg *fabric.Message
}

// nextPSN numbers the QP's next message of sequence seq.
func (qp *QP) nextPSN(seq int) uint64 {
	qp.retx.sent[seq]++
	return qp.retx.sent[seq]
}

// rejoin puts a message back into the lost window at its posting position
// and makes sure the retransmission timer is running.
func (qp *QP) rejoin(r replay) {
	w := append(qp.retx.window, r)
	i := len(w) - 1
	for ; i > 0 && w[i-1].psn > r.psn; i-- {
		w[i] = w[i-1]
	}
	w[i] = r
	qp.retx.window = w
	if !qp.retx.armed {
		qp.retx.armed = true
		qp.retx.timer = qp.dev.sim.AfterTimer(qp.dev.prof().TransportRetryDelay, qp.retxFire)
	}
}

// armRetry makes msg, the psn-th message of this QP's sequence seq, a
// reliable one. Receiving side: the message lands only if it is the next of
// its sequence; anything else is out of order behind a loss and is
// discarded, as a real responder NAKs a PSN it does not expect — so RC
// delivers in posting order across a drop too. Sending side: when the fabric
// reports the message dropped (tail drop on the lossy tier, or an injected
// fault) or the receiver discards it, it rejoins the QP's lost window and
// the per-QP retransmission timer is armed. Only a message the fabric
// actually dropped spends one of its bounded retries (ibv retry_cnt
// semantics: a real requester retries the oldest unacknowledged PSN, and
// the discarded followers ride along for free); exhaustion errors the QP
// with WCRetryExceeded and flushes everything outstanding.
func (qp *QP) armRetry(msg *fabric.Message, wrID uint64, op Opcode, seq int, psn uint64) {
	to, attempts := msg.To, 0
	// lost runs for every copy of msg that did not land. The fabric reports a
	// loss, and the receiver discards, at the receiving end of the wire,
	// which on a partitioned network is another partition: the verdict —
	// real hardware's timeout or NAK — routes home before touching the QP's
	// retransmission engine.
	lost := func(dropped bool) {
		qp.home(to, 0, func() {
			if qp.state == QPError {
				return
			}
			if dropped {
				attempts++
				if attempts > qp.dev.prof().RetryCount {
					qp.enterError(&CQE{QPN: qp.qpn, WRID: wrID, Op: op, Status: WCRetryExceeded}, WCFlushErr)
					return
				}
			}
			qp.dev.stats.TransportRetries++
			qp.dev.tr().Instant(qp.dev.sim.Now(), telemetry.EvTransportRetry,
				int32(qp.dev.node), qp.cacheKey(), int64(wrID), int64(attempts))
			qp.rejoin(replay{psn, msg})
		})
	}
	msg.Dropped = func() { lost(true) }
	land := msg.Deliver
	msg.Deliver = func(at sim.Time) {
		rx := qp // responses come back to the QP that asked
		if seq == seqRequest {
			rx = deviceAt(qp.dev.net, to).qps[qp.peerQPN]
		}
		if rx != nil {
			if rx.retx.next[seq]+1 != psn {
				lost(false)
				return
			}
			rx.retx.next[seq] = psn
		}
		land(at)
	}
}

// retxFire replays the lost window in posting order (go-back-N). Replays go
// through the DCQCN pacer, so a congestion-cut QP retransmits at its cut
// rate instead of re-melting the switch. Teardown while the timer was
// pending stops it on the wheel, so a cancelled timer never gets here; the
// state checks are a second line of defense.
func (qp *QP) retxFire() {
	if !qp.retx.armed || qp.state == QPError {
		return
	}
	if qp.paced > 0 {
		// Sends posted before the loss was known are still waiting in the
		// pacer. Rewinding the send pointer puts them behind the replay, so
		// the replay waits until the last of them has reached the head of
		// the pipeline and frozen (its slot ends at txNextFree); released
		// after it, they would overtake the very messages they follow.
		qp.retx.timer = qp.dev.sim.AfterTimer(qp.txNextFree.Sub(qp.dev.sim.Now()), qp.retxFire)
		return
	}
	qp.retx.armed = false
	window := qp.retx.window
	qp.retx.window = nil
	net := qp.dev.net
	for _, r := range window {
		if m := r.msg; qp.foreign(m.From) {
			// A remote-NIC leg (an RDMA Read response) replays on the NIC
			// that owns it, through its QP's pacer as the first copy went.
			net.Route(qp.dev.node, m.From, qp.dev.sim.Now().Add(net.Prof.RouteLatency()), func() {
				if rqp := deviceAt(net, m.From).qps[qp.peerQPN]; rqp != nil {
					rqp.pacedSend(net.Prof.WireBytes(m.Payload, m.Service), func() { net.Transmit(m) })
				} else {
					net.Transmit(m)
				}
			})
			continue
		}
		qp.sendPaced(r.msg, r.psn)
	}
}

// cancelRetx stops any pending retransmission timer on the wheel and
// discards the unreplayed window. Every QP teardown path calls it, so a
// timer armed before a peer-down event can never transmit into the
// torn-down QP; the windowed WRs themselves are flushed by the error path.
func (qp *QP) cancelRetx() {
	qp.retx.timer.Stop()
	qp.retx.timer = sim.Timer{}
	qp.retx.armed = false
	qp.retx.window = nil
}
