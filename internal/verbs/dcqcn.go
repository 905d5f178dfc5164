package verbs

import (
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// DCQCN-style per-QP rate limiting in the NIC TX engine, for the lossy
// RoCEv2 tier. The control loop follows Zhu et al. (SIGCOMM'15) in shape,
// simplified to the pieces that matter for shuffle behaviour: a congested
// egress port CE-marks data packets (fabric), the receiving NIC answers with
// a coalesced congestion notification packet (CNP) toward the sender QP, the
// sender cuts that QP's rate multiplicatively, and a periodic timer recovers
// it toward line rate (hyper increase via target-rate averaging plus an
// additive-increase step). A QP with no limiter entry transmits at line rate
// with zero bookkeeping, so lossless profiles pay nothing.
type dcqcn struct {
	// rate is the current sending rate in bytes/s; target is the rate
	// before the last cut, which recovery converges back toward.
	rate, target float64
	// alpha is the EWMA congestion estimate in [0,1].
	alpha float64
	// timerArmed guards the single recovery timer per limiter; timer is its
	// cancellable wheel handle.
	timerArmed bool
	timer      sim.Timer
}

// installECN wires the fabric's ECN-mark notifications to CNP generation at
// the receiving device. OpenAll calls it once per network.
func installECN(net *fabric.Network) {
	net.SetECNHandler(func(from, to int, fromQP, toQP uint64) {
		deviceAt(net, to).ecnMarked(from, fromQP, toQP)
	})
}

// ecnMarked runs at the receiving NIC for every CE-marked packet: it answers
// with a CNP toward the sender QP, coalesced per flow by the CNP timer as
// real NICs do. CNPs ride the control lane (never paused, marked, or
// tail-dropped) and are fire-and-forget: a lost CNP just means no cut this
// interval.
func (d *Device) ecnMarked(from int, fromQP, toQP uint64) {
	prof := d.prof()
	if !prof.DCQCN {
		return
	}
	now := d.sim.Now()
	if last, ok := d.cnpLast[fromQP]; ok && now.Sub(last) < prof.CNPInterval {
		return
	}
	if d.cnpLast == nil {
		d.cnpLast = make(map[uint64]sim.Time)
	}
	d.cnpLast[fromQP] = now
	d.stats.CNPsSent++
	d.tr().Instant(now, telemetry.EvCNP, int32(d.node), fromQP, int64(from), 0)
	net := d.net
	qpn := uint32(fromQP) // low half of the cache key is the sender's QPN
	cnp := &fabric.Message{
		From: d.node, To: from,
		FromQP: toQP, ToQP: fromQP,
		Payload: prof.CNPBytes, Service: fabric.RC,
		Deliver: func(at sim.Time) { deviceAt(net, from).handleCNP(qpn) },
		Dropped: func() {},
	}
	net.Transmit(cnp)
}

// handleCNP applies one congestion notification to the named local QP:
// update alpha, remember the current rate as the recovery target, cut
// multiplicatively, and make sure the recovery timer is running.
func (d *Device) handleCNP(qpn uint32) {
	prof := d.prof()
	d.stats.CNPsReceived++
	rl := d.rl[qpn]
	if rl == nil {
		rl = &dcqcn{rate: prof.LinkBandwidth, alpha: 1}
		d.rl[qpn] = rl
	}
	rl.alpha = (1-prof.DCQCNAlphaG)*rl.alpha + prof.DCQCNAlphaG
	rl.target = rl.rate
	rl.rate *= 1 - rl.alpha/2
	if rl.rate < prof.DCQCNMinRate {
		rl.rate = prof.DCQCNMinRate
	}
	d.stats.RateCuts++
	d.tr().Instant(d.sim.Now(), telemetry.EvRateCut,
		int32(d.node), uint64(d.node)<<32|uint64(qpn), int64(rl.rate), 1)
	d.armRateTimer(qpn, rl)
}

func (d *Device) armRateTimer(qpn uint32, rl *dcqcn) {
	if rl.timerArmed {
		return
	}
	rl.timerArmed = true
	rl.timer = d.sim.AfterTimer(d.prof().DCQCNRecoveryPeriod, func() { d.rateTick(qpn, rl) })
}

// rateTick is one recovery period: decay alpha, raise the target additively,
// and average the rate halfway toward it (the hyper-increase shape). Once
// the rate is back at line rate the limiter retires, restoring the
// zero-bookkeeping fast path.
func (d *Device) rateTick(qpn uint32, rl *dcqcn) {
	rl.timerArmed = false
	rl.timer = sim.Timer{}
	if d.rl[qpn] != rl {
		return // limiter was retired or replaced while the timer was pending
	}
	prof := d.prof()
	link := prof.LinkBandwidth
	rl.target += prof.DCQCNRateAI
	if rl.target > link {
		rl.target = link
	}
	rl.rate = (rl.rate + rl.target) / 2
	rl.alpha *= 1 - prof.DCQCNAlphaG
	d.tr().Instant(d.sim.Now(), telemetry.EvRateCut,
		int32(d.node), uint64(d.node)<<32|uint64(qpn), int64(rl.rate), 0)
	if rl.rate >= 0.999*link {
		delete(d.rl, qpn)
		return
	}
	d.armRateTimer(qpn, rl)
}

// Rate returns qpn's current DCQCN sending rate in bytes/s and whether a
// limiter is active; an inactive limiter means line rate.
func (d *Device) Rate(qpn uint32) (float64, bool) {
	if rl := d.rl[qpn]; rl != nil {
		return rl.rate, true
	}
	return d.prof().LinkBandwidth, false
}

// sendPaced routes msg, the psn-th of its sequence (zero for traffic outside
// the go-back-N sequences), through the QP's DCQCN rate limiter and
// retransmission engine before handing it to the fabric. While a replay is
// pending the QP's send pointer sits behind the hole, so an RC data send
// (droppable, i.e. retry-armed; infrastructure and UD traffic passes) that
// reaches the head of the TX pipeline freezes there, joins the lost window,
// and first hits the wire when the retransmission timer fires — the
// head-of-line stall that makes packet loss expensive on real RC hardware.
// The check sits at the pacer's release instant, so a loss detected while
// the message sat in the pacer rewinds it into the replay window too.
func (qp *QP) sendPaced(msg *fabric.Message, psn uint64) {
	qp.pacedSend(qp.dev.net.Prof.WireBytes(msg.Payload, msg.Service), func() {
		if qp.retx.armed && qp.cfg.Type == fabric.RC && msg.Dropped != nil {
			qp.rejoin(replay{psn, msg})
			return
		}
		qp.dev.net.Transmit(msg)
	})
}

// pacedSend delays send() so the QP's flow respects its NIC TX engine's
// token bucket. On lossy DCQCN profiles every QP is paced — at line rate
// when uncut, at the limiter's rate after a CNP — which is what lets a
// mid-burst rate cut throttle the not-yet-released remainder of a posted
// burst, exactly as a hardware TX pipeline would. Lossless profiles (no
// DCQCN) transmit immediately with zero bookkeeping. A send still pending
// when the QP dies is discarded — its WR has already been flushed by the
// error path.
func (qp *QP) pacedSend(wire int, send func()) {
	d := qp.dev
	prof := d.prof()
	if !prof.Lossy || !prof.DCQCN {
		send()
		return
	}
	rate := prof.LinkBandwidth
	if rl := d.rl[qp.qpn]; rl != nil {
		rate = rl.rate
	}
	now := d.sim.Now()
	start := qp.txNextFree
	if start < now {
		start = now
	}
	qp.txNextFree = start.Add(fabric.Serialize(wire, rate))
	if start <= now {
		send()
		return
	}
	qp.paced++
	d.sim.At(start, func() {
		qp.paced--
		if qp.state == QPError {
			return
		}
		send()
	})
}
