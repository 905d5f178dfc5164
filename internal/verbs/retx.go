package verbs

import (
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// Per-QP transport retransmission. Real RC hardware keeps one retransmission
// timer per QP (the local ACK timeout) and, on expiry or NAK, rewinds the
// send pointer to the lost packet and replays go-back-N style; this file
// models that instead of scheduling an independent timer per lost message.
// While the timer is pending, the QP's new data sends queue behind the hole
// (see QP.sendPaced) and ship with the replay, so a loss stalls the whole
// pipeline for one ACK timeout — the dominant cost of running RoCE on a
// lossy fabric. The timer is cancellable: teardown paths (QP error,
// peer-down, Destroy) stop the wheel timer in O(1) so a pending timer can
// never fire into a dead QP.

// retxState is one QP's retransmission engine.
type retxState struct {
	// queue is the lost window awaiting replay — dropped messages plus any
	// data sends posted while the send pointer was rewound — in queue order.
	queue []*fabric.Message
	// armed guards the single pending timer.
	armed bool
	// timer is the pending wheel timer handle (sim.Timer), cancelled by
	// cancelRetx.
	timer sim.Timer
}

// armRetry installs the transport-loss handler on an RC message: when the
// fabric reports it dropped (tail drop on the lossy tier, or an injected
// fault), the message joins the QP's lost window and the per-QP
// retransmission timer is armed. Each message carries a bounded retry budget
// (ibv retry_cnt semantics); exhaustion errors the QP with WCRetryExceeded
// and flushes everything outstanding.
func (qp *QP) armRetry(msg *fabric.Message, wrID uint64, op Opcode) {
	prof := qp.dev.prof()
	attempts := 0
	drop := func() {
		if qp.state == QPError || qp.destroyed {
			return
		}
		attempts++
		if attempts > prof.RetryCount {
			qp.enterError(&CQE{QPN: qp.qpn, WRID: wrID, Op: op, Status: WCRetryExceeded}, WCFlushErr)
			return
		}
		qp.dev.stats.TransportRetries++
		qp.dev.tr().Instant(qp.dev.sim.Now(), telemetry.EvTransportRetry,
			int32(qp.dev.node), qp.cacheKey(), int64(wrID), int64(attempts))
		qp.retx.queue = append(qp.retx.queue, msg)
		qp.armRetxTimer()
	}
	msg.Dropped = drop
	if to := msg.To; qp.foreign(to) {
		// The fabric reports a loss from the receiving end of the wire (the
		// arrival event that never delivered), which on a partitioned network
		// is another partition. The loss verdict — real hardware's timeout or
		// NAK — routes home before touching the QP's retransmission engine.
		msg.Dropped = func() { qp.home(to, 0, drop) }
	}
}

// armRetxTimer starts the QP's retransmission timer unless one is already
// pending; it fires after the local ACK timeout.
func (qp *QP) armRetxTimer() {
	if qp.retx.armed {
		return
	}
	qp.retx.armed = true
	qp.retx.timer = qp.dev.sim.AfterTimer(qp.dev.prof().TransportRetryDelay, qp.retxFire)
}

// retxFire replays the lost window in queue order (go-back-N). Replays go
// through the DCQCN pacer, so a congestion-cut QP retransmits at its cut
// rate instead of re-melting the switch. Teardown while the timer was
// pending stops it on the wheel, so a cancelled timer never gets here; the
// state checks are a second line of defense.
func (qp *QP) retxFire() {
	if !qp.retx.armed || qp.destroyed || qp.state == QPError {
		return
	}
	qp.retx.armed = false
	window := qp.retx.queue
	qp.retx.queue = nil
	net := qp.dev.net
	for _, m := range window {
		if qp.foreign(m.From) {
			// A remote-NIC leg (an RDMA Read response) replays on the NIC
			// that owns it. Partitioned profiles are lossless, so there is no
			// pacer state to consult on the far side — the bare Transmit is
			// exactly what sendPaced reduces to there.
			m := m
			net.Route(qp.dev.node, m.From, qp.dev.sim.Now().Add(net.Prof.RouteLatency()),
				func() { net.Transmit(m) })
			continue
		}
		qp.sendPaced(m)
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
	qp.retx.queue = nil
}
