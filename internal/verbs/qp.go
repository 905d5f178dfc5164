package verbs

import (
	"fmt"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// MaxInline is the largest payload that may be posted with SendWR.Inline.
const MaxInline = 220

// AH is an address handle identifying a UD destination: either a single
// (node, QPN) pair, or a hardware multicast group when Multicast is set.
type AH struct {
	Node int
	QPN  uint32
	// Multicast addresses the MGID group instead of a single QP; the switch
	// replicates the datagram to every attached QP (one work request, one
	// uplink serialization at the sender).
	Multicast bool
	MGID      uint32
}

// RecvWR is a receive work request: a registered buffer slot into which one
// incoming Send will be placed.
type RecvWR struct {
	ID     uint64
	MR     *MR
	Offset int
	Len    int
}

// SendWR is a send-side work request for the Send, Read, or Write transport
// functions.
type SendWR struct {
	ID uint64
	Op Opcode

	// Local buffer.
	MR     *MR
	Offset int
	Len    int

	// Imm is carried to the receiver's completion when HasImm is set
	// (Send only).
	Imm    uint32
	HasImm bool

	// Inline asks the CPU to copy the payload into the work request itself,
	// allowing the buffer to be reused as soon as the post returns.
	Inline bool

	// Dest addresses the destination of a UD Send.
	Dest AH

	// RemoteKey and RemoteOffset address the remote region for Read/Write.
	RemoteKey    uint32
	RemoteOffset int
}

// QPConfig configures CreateQP.
type QPConfig struct {
	Type    fabric.Service
	SendCQ  *CQ
	RecvCQ  *CQ
	MaxSend int // send queue depth
	MaxRecv int // receive queue depth
}

// QP is a queue pair. Its methods are thread-safe: posting verbs serialize
// on an internal FIFO lock, which is exactly the contention the paper
// observes on ibv_post_send when many threads share one QP.
type QP struct {
	dev *Device
	qpn uint32
	cfg QPConfig
	mu  *sim.Mutex

	connected bool
	peerNode  int
	peerQPN   uint32
	// peerEpoch is the peer device's boot epoch captured at Connect (the
	// epoch rides the connection-manager exchange). Every work request this
	// QP issues carries it, and the responder fences requests whose epoch no
	// longer matches its own — a pre-reboot QP can never complete into
	// post-reboot memory. Zero means unfenced (peer not epoch-aware).
	peerEpoch uint64

	recvQ       fifo[RecvWR]
	outstanding int
	// inflight tracks posted sends in order, so that an error transition
	// can flush them deterministically.
	inflight []inflightWR

	// stalled holds RC messages that arrived while no receive was posted.
	// The connection preserves ordering: later arrivals queue behind the
	// RNR-NAKed head and are matched in arrival order once receives appear.
	stalled      []stalledRC
	drainPending bool

	// retx is the per-QP transport retransmission engine (see retx.go).
	retx retxState
	// txNextFree is the NIC TX engine's token bucket for this QP: on lossy
	// DCQCN profiles, sends are released no faster than the QP's current
	// rate (see pacedSend).
	txNextFree sim.Time
	// paced counts the sends waiting in the pacer for their release instant.
	paced int

	state QPState
}

// inflightWR is the identity of one posted, uncompleted send-side WR.
type inflightWR struct {
	id uint64
	op Opcode
}

// stalledRC is an in-flight RC Send waiting for a posted receive.
type stalledRC struct {
	r *rcMsg
	// retries counts RNR retry rounds this message has spent at the head
	// of the stall queue.
	retries int
}

// CreateQP creates a queue pair of the configured type. It panics if the
// transport does not offer the requested service (iWARP has no UD).
func (d *Device) CreateQP(cfg QPConfig) *QP {
	if cfg.Type == fabric.UD && !d.prof().SupportsUD {
		panic(fmt.Sprintf("verbs: %s offers no Unreliable Datagram service", d.prof().Name))
	}
	if cfg.MaxSend <= 0 {
		cfg.MaxSend = 128
	}
	if cfg.MaxRecv <= 0 {
		cfg.MaxRecv = 512
	}
	d.nextQPN++
	d.stats.QPsCreated++
	qp := &QP{
		dev: d,
		qpn: d.nextQPN,
		cfg: cfg,
		mu:  d.sim.NewMutex(fmt.Sprintf("qp%d@%d", d.nextQPN, d.node)),
	}
	d.qps[qp.qpn] = qp
	return qp
}

// QPN returns the queue pair number, unique within the device.
func (qp *QP) QPN() uint32 { return qp.qpn }

// State returns the queue pair state.
func (qp *QP) State() QPState { return qp.state }

// cacheKey identifies this QP's state in NIC caches across the cluster.
func (qp *QP) cacheKey() uint64 { return uint64(qp.dev.node)<<32 | uint64(qp.qpn) }

// Connect binds an RC queue pair to its single remote peer. Both sides must
// connect before traffic flows. The out-of-band exchange cost is accounted
// by the cluster connection manager, not here.
func (qp *QP) Connect(peerNode int, peerQPN uint32) error {
	if qp.cfg.Type != fabric.RC {
		return ErrBadOp
	}
	qp.connected = true
	qp.peerNode = peerNode
	qp.peerQPN = peerQPN
	// The peer's boot epoch rides the out-of-band connection exchange; work
	// requests carry it so the responder can fence stale writers after a
	// reboot. Loopback connections and non-device peers stay unfenced.
	if peerNode != qp.dev.node {
		if peer, ok := qp.dev.net.Host(peerNode).(*Device); ok {
			qp.peerEpoch = peer.epoch
		}
	}
	return nil
}

// fencedAt implements the responder-side epoch check: if this QP's captured
// peer epoch is stale with respect to the responder device's current epoch,
// the work request is rejected before touching responder memory — the
// responder counts and traces the fence, and the requester QP breaks with
// WCFenced. It returns true when the request must not proceed.
func (qp *QP) fencedAt(responder *Device, wrID uint64, op Opcode) bool {
	if qp.peerEpoch == 0 || qp.peerEpoch == responder.epoch {
		return false
	}
	responder.stats.StaleFenced++
	responder.tr().Instant(responder.sim.Now(), telemetry.EvStaleFenced,
		int32(responder.node), qp.cacheKey(), int64(qp.dev.node), int64(responder.epoch))
	qp.errorFrom(responder, CQE{QPN: qp.qpn, WRID: wrID, Op: op, Status: WCFenced})
	return true
}

// foreign reports whether node is another node than qp's own: its events
// may execute on another partition, and so must not touch qp's state.
func (qp *QP) foreign(node int) bool { return node != qp.dev.node }

// home fires h with verdict as the arrival at qp of a verdict reached on
// node from: an ACK, a NAK (fence, peer error, RNR exhaustion), a loss
// report. A queue pair's state may only be touched by its own partition, so
// a remote responder's verdict rides the fabric home as a routed message,
// arriving one full route latency (switch + propagation) later — the wire
// trip it takes on real hardware, and late enough to clear the window bound
// at any LP count. Same-node verdicts land after local, synchronously when
// local is zero. The verdicts of a message's life are its record's (rcMsg);
// the rare ones take a closure through sim.Func.
func (qp *QP) home(from int, local sim.Duration, h sim.Handler, verdict uint64) {
	net := qp.dev.net
	switch {
	case qp.foreign(from):
		net.RouteHandler(from, qp.dev.node, net.SimAt(from).Now().Add(net.Prof.RouteLatency()), h, verdict)
	case local > 0:
		qp.dev.sim.Schedule(qp.dev.sim.Now().Add(local), h, verdict)
	default:
		h.Fire(verdict)
	}
}

// errorFrom transitions qp into the Error state on the verdict of exec's
// device, with e as the failed work request's completion.
func (qp *QP) errorFrom(exec *Device, e CQE) {
	qp.home(exec.node, 0, sim.Func(func() { qp.enterError(&e, WCFlushErr) }), 0)
}

// PostRecv posts a receive buffer. The buffer must stay untouched until its
// completion arrives. For UD queue pairs the first GRHSize bytes of the
// slot are consumed by the routing header, so Len must exceed GRHSize.
func (qp *QP) PostRecv(p *sim.Proc, wr RecvWR) error {
	qp.mu.Lock(p)
	defer qp.mu.Unlock(p)
	p.Sleep(qp.dev.prof().PostCost) // a refused post costs the call too
	if qp.cfg.Type == fabric.RC && qp.connected && qp.dev.PeerDown(qp.peerNode) {
		return ErrPeerDown
	}
	if qp.state == QPError {
		return ErrQPError
	}
	if qp.recvQ.n >= qp.cfg.MaxRecv {
		return ErrRQFull
	}
	if err := wr.MR.check(wr.Offset, wr.Len); err != nil {
		return err
	}
	if qp.cfg.Type == fabric.UD && wr.Len <= GRHSize {
		return ErrTooLong
	}
	qp.dev.stats.Posts++
	qp.recvQ.push(wr)
	qp.armRNRTimer()
	return nil
}

// PostSend posts a Send, Read, or Write work request. It never blocks on
// the network; completion arrives on the send CQ.
func (qp *QP) PostSend(p *sim.Proc, wr SendWR) error {
	qp.mu.Lock(p)
	p.Sleep(qp.dev.prof().PostCost) // a refused post costs the call too
	if qp.cfg.Type == fabric.RC && qp.connected && qp.dev.PeerDown(qp.peerNode) {
		qp.mu.Unlock(p)
		return ErrPeerDown
	}
	if qp.state == QPError {
		qp.mu.Unlock(p)
		return ErrQPError
	}
	if qp.outstanding >= qp.cfg.MaxSend {
		qp.mu.Unlock(p)
		return ErrSQFull
	}
	if err := wr.MR.check(wr.Offset, wr.Len); err != nil {
		qp.mu.Unlock(p)
		return err
	}
	var err error
	switch wr.Op {
	case OpSend:
		err = qp.postSendMsg(p, wr)
	case OpRead:
		err = qp.postRead(wr)
	case OpWrite:
		err = qp.postWrite(p, wr)
	default:
		err = ErrBadOp
	}
	if err == nil {
		qp.dev.stats.Posts++
		qp.outstanding++
		qp.inflight = append(qp.inflight, inflightWR{wr.ID, wr.Op})
		// The WR lifecycle span opens at post time and closes when the
		// completion is generated (complete) or the WR is flushed.
		qp.dev.tr().Begin(qp.dev.sim.Now(), telemetry.EvWR,
			int32(qp.dev.node), qp.cacheKey(), int64(wr.ID), int64(wr.Op))
	}
	qp.mu.Unlock(p)
	return err
}

// Outstanding returns the number of posted sends whose completions have not
// been generated yet.
func (qp *QP) Outstanding() int { return qp.outstanding }

func (qp *QP) complete(cq *CQ, e CQE) {
	if qp.state == QPError {
		// The WR was already flushed with an error completion; drop the
		// late success.
		return
	}
	qp.dropInflight(e.WRID, e.Op)
	qp.outstanding--
	qp.dev.tr().End(qp.dev.sim.Now(), telemetry.EvWR,
		int32(qp.dev.node), qp.cacheKey(), int64(e.WRID), int64(e.Status))
	cq.push(e)
}

// dropInflight removes the first in-flight record matching (id, op).
func (qp *QP) dropInflight(id uint64, op Opcode) bool {
	for i, w := range qp.inflight {
		if w.id == id && w.op == op {
			qp.inflight = append(qp.inflight[:i], qp.inflight[i+1:]...)
			return true
		}
	}
	return false
}

// enterError is the one transition to the Error state. A failed work
// request (trigger non-nil) completes with its own error status and every
// other outstanding send-side WR is flushed with status flush; a
// connection-manager event (trigger nil) flushes them all with flush. Either
// way every posted receive is flushed with WCFlushErr and subsequent posts
// fail with ErrQPError. It is idempotent.
func (qp *QP) enterError(trigger *CQE, flush WCStatus) {
	if qp.state == QPError {
		return
	}
	qp.state = QPError
	qp.cancelRetx()
	qp.dev.stats.QPErrors++
	now := qp.dev.sim.Now()
	cause := flush
	if trigger != nil {
		cause = trigger.Status
	}
	qp.dev.tr().Instant(now, telemetry.EvQPError,
		int32(qp.dev.node), qp.cacheKey(), int64(cause), 0)
	flushWR := func(e CQE) {
		qp.dev.tr().End(now, telemetry.EvWR,
			int32(qp.dev.node), qp.cacheKey(), int64(e.WRID), int64(e.Status))
		qp.cfg.SendCQ.pushFlush(e)
	}
	if trigger != nil {
		if qp.dropInflight(trigger.WRID, trigger.Op) {
			qp.outstanding--
		}
		flushWR(*trigger)
	}
	for _, w := range qp.inflight {
		qp.outstanding--
		flushWR(CQE{QPN: qp.qpn, WRID: w.id, Op: w.op, Status: flush})
	}
	qp.inflight = nil
	for ; qp.recvQ.n > 0; qp.recvQ.drop(1) {
		qp.cfg.RecvCQ.pushFlush(CQE{QPN: qp.qpn, WRID: qp.recvQ.front().ID, Op: OpRecv, Status: WCFlushErr})
	}
	qp.stalled = nil
	// Wake pollers that wait on memory changes rather than CQs (one-sided
	// protocols) so they observe the failure promptly.
	qp.dev.memWake.Broadcast()
}

// rcReady checks the preconditions every RC data verb shares: a connected
// Reliable Connection queue pair and a message within the service's limit.
func (qp *QP) rcReady(wr SendWR) error {
	switch {
	case qp.cfg.Type != fabric.RC:
		return ErrBadOp
	case !qp.connected:
		return ErrNotConnected
	case wr.Len > qp.dev.prof().MaxMsgRC:
		return ErrTooLong
	}
	return nil
}

// toPeer returns a record for an RC message of payload bytes from this QP
// to its peer, carrying wr.
func (qp *QP) toPeer(wr SendWR, payload int) *rcMsg {
	r := &rcMsg{qp: qp, wr: wr}
	r.msg = fabric.Message{
		From: qp.dev.node, To: qp.peerNode,
		FromQP: qp.cacheKey(), ToQP: uint64(qp.peerNode)<<32 | uint64(qp.peerQPN),
		Payload: payload, Service: fabric.RC,
	}
	return r
}

// stage is the payload-staging step of a Send or Write post. An inline
// payload must fit the WQE and is copied into it by the CPU, charged here,
// and a UD send completes once the datagram is on the wire, before it is
// delivered; in both cases the application may rewrite the buffer while the
// message is in flight, so the payload is snapshotted into dst, or into a
// fresh slice when dst is nil. A unicast datagram's dst is its record's
// snapshot (ring.go); a multicast payload is shared by every member's
// delivery and so has no single point at which it is free, and an inline RC
// payload is a few bytes — those two are plain allocations.
//
// A non-inline RC payload is staged by reference. The invariant: between
// the post and the work request's completion the buffer belongs to the NIC.
// The completion follows delivery (it is the ACK), so the bytes are read
// before the owner may touch them; a message stalled on an RNR NAK or
// replayed by go-back-N re-reads the same still-owned bytes, as a real
// adapter re-reads host memory on every retransmission. The one way out of
// the invariant is a flush: when the QP enters the error state its pending
// requests complete with WCFlushErr while copies may still be in flight. On
// the single-wheel engine deliverSend drops such a late arrival outright; on
// a partitioned network it is delivered and only its ACK is dropped, so a
// sender that rewrote the buffer straight after the flush would hand the
// receiver the new contents. Nothing here does: shuffle's reap returns a
// buffer to its pool on a successful completion only, MPI frees staging the
// same way, and pooled regions are recycled after the simulation has ended.
func (qp *QP) stage(p *sim.Proc, wr SendWR, dst []byte) ([]byte, error) {
	if wr.Inline {
		if wr.Len > MaxInline {
			return nil, ErrTooLong
		}
		p.Sleep(sim.Duration(float64(wr.Len) * qp.dev.prof().MemCopyPerByte))
	} else if qp.cfg.Type == fabric.RC {
		return wr.MR.Bytes(wr.Offset, wr.Len), nil
	}
	if dst == nil {
		dst = make([]byte, wr.Len)
	}
	copy(dst, wr.MR.Bytes(wr.Offset, wr.Len))
	return dst, nil
}

// done generates the success completion of send-side work request wrID.
func (qp *QP) done(op Opcode, wrID uint64, n int) {
	switch op {
	case OpSend:
		qp.dev.stats.SendsCompleted++
	case OpRead:
		qp.dev.stats.ReadsCompleted++
	case OpWrite:
		qp.dev.stats.WritesCompleted++
	}
	qp.complete(qp.cfg.SendCQ, CQE{QPN: qp.qpn, WRID: wrID, Op: op, Bytes: n})
}

func (qp *QP) postSendMsg(p *sim.Proc, wr SendWR) error {
	if qp.cfg.Type == fabric.RC {
		if err := qp.rcReady(wr); err != nil {
			return err
		}
		payload, err := qp.stage(p, wr, nil)
		if err != nil {
			return err
		}
		r := qp.toPeer(wr, wr.Len)
		r.payload = payload
		qp.sendRC(r, seqRequest)
		return nil
	}
	if wr.Len > qp.dev.prof().MTU {
		return ErrTooLong
	}
	if !wr.Dest.Multicast {
		r := qp.dev.takeUD()
		if _, err := qp.stage(p, wr, r.snap[:wr.Len]); err != nil {
			qp.dev.parkUD(r)
			return err
		}
		r.src, r.id, r.toQPN, r.imm, r.hasImm = qp, wr.ID, wr.Dest.QPN, wr.Imm, wr.HasImm
		r.msg.From, r.msg.To = qp.dev.node, wr.Dest.Node
		r.msg.FromQP, r.msg.ToQP = qp.cacheKey(), uint64(wr.Dest.Node)<<32|uint64(wr.Dest.QPN)
		r.msg.Payload, r.msg.Service = wr.Len, fabric.UD
		qp.sendPaced(&r.msg, 0)
		return nil
	}
	payload, err := qp.stage(p, wr, nil)
	if err != nil {
		return err
	}
	net := qp.dev.net
	src, srcQPN, dest, id, n := qp.dev.node, qp.qpn, wr.Dest, wr.ID, wr.Len
	msg := &fabric.Message{
		From: src, FromQP: qp.cacheKey(), Payload: wr.Len, Service: fabric.UD,
		// Local completion when the datagram is on the wire.
		Sent:    func(at sim.Time) { qp.done(OpSend, id, n) },
		Dropped: func() {},
	}
	// One datagram to every QP attached to the MGID. The switch knows the
	// membership; collect member nodes and their attached QPs.
	var nodes []int
	members := map[int][]*QP{}
	for i := 0; i < net.Nodes(); i++ {
		if d, ok := net.Host(i).(*Device); ok && len(d.mcast[dest.MGID]) > 0 {
			nodes = append(nodes, i)
			members[i] = d.mcast[dest.MGID]
		}
	}
	msg.To, msg.ToQP = fabric.AnyNode, uint64(dest.MGID)|1<<48
	qp.pacedSend(net.Prof.WireBytes(wr.Len, fabric.UD), func() {
		net.TransmitMulticast(msg, nodes, func(node int, at sim.Time) {
			for _, rqp := range members[node] {
				deliverUD(net, node, rqp.qpn, src, srcQPN, payload, wr.Imm, wr.HasImm)
			}
		})
	})
	return nil
}

// deliverSend lands an RC Send at its destination. If no receive is posted
// (or earlier messages are already stalled) the message joins the
// connection's stall queue: the destination returned an RNR NAK and the
// retried message must still be matched in its original order, as the
// Reliable Connection service guarantees in-order delivery.
func (r *rcMsg) deliverSend() {
	qp, wr := r.qp, &r.wr
	toNode, toQPN := r.msg.To, uint32(r.msg.ToQP)
	dst := deviceAt(qp.dev.net, toNode)
	rqp := dst.qps[toQPN]
	if rqp == nil || rqp.cfg.Type != fabric.RC {
		panic(fmt.Sprintf("verbs: RC send to nonexistent QP %d on node %d", toQPN, toNode))
	}
	// A late arrival of a send already flushed at the source is not judged
	// here: this runs on the receiver's partition, which cannot read the
	// sender's state. complete()'s own error-state guard drops the late
	// success when the routed ACK reaches home.
	if rqp.state == QPError {
		// The peer flushed its receive queue and will never post again; the
		// sender observes the broken connection as retry exhaustion.
		qp.errorFrom(rqp.dev, CQE{QPN: qp.qpn, WRID: wr.ID, Op: OpSend, Status: WCRetryExceeded})
		return
	}
	if qp.fencedAt(dst, wr.ID, OpSend) {
		// Stale boot epoch: the responder rejects the Send before it can
		// consume a post-reboot receive buffer.
		return
	}
	if len(rqp.stalled) > 0 || rqp.recvQ.n == 0 {
		// The RNR NAK is generated here, at the responder, and counted on
		// the responder device, whose partition is executing.
		rqp.dev.stats.RNRRetries++
		rqp.dev.tr().Instant(rqp.dev.sim.Now(), telemetry.EvRNRRetry,
			int32(toNode), rqp.cacheKey(), int64(wr.ID), 0)
		rqp.stalled = append(rqp.stalled, stalledRC{r: r})
		rqp.armRNRTimer()
		return
	}
	rqp.match(r)
}

// match consumes one posted receive for Send r and generates both
// completions.
func (rqp *QP) match(r *rcMsg) {
	rwr := rqp.recvQ.front()
	rqp.recvQ.drop(1)
	if rwr.Len < len(r.payload) {
		panic(fmt.Sprintf("verbs: RC recv buffer too small (%d < %d) on node %d",
			rwr.Len, len(r.payload), rqp.dev.node))
	}
	copy(rwr.MR.Bytes(rwr.Offset, len(r.payload)), r.payload)
	rqp.dev.stats.RecvsCompleted++
	rqp.cfg.RecvCQ.push(CQE{
		QPN: rqp.qpn, WRID: rwr.ID, Op: OpRecv, Bytes: len(r.payload),
		Imm: r.wr.Imm, HasImm: r.wr.HasImm,
		SrcNode: r.qp.dev.node, SrcQPN: r.qp.qpn,
	})
	// Sender completion once the ACK returns.
	r.qp.home(rqp.dev.node, rqp.dev.prof().PropagationDelay, r, verdictAck)
}

// armRNRTimer schedules one RNR retry round after RNRRetryDelay, unless one
// is already pending. Rounds drain stalled messages against posted receives
// in arrival order; a head message that stays unmatched burns one of its
// bounded retries (rnr_retry semantics).
func (rqp *QP) armRNRTimer() { rqp.armRNRAfter(rqp.dev.prof().RNRRetryDelay) }

func (rqp *QP) armRNRAfter(d sim.Duration) {
	if rqp.drainPending || len(rqp.stalled) == 0 {
		return
	}
	rqp.drainPending = true
	rqp.dev.sim.After(d, func() { rqp.rnrTick() })
}

// rnrTick runs one RNR retry round.
func (rqp *QP) rnrTick() {
	rqp.drainPending = false
	if rqp.state == QPError {
		rqp.stalled = nil
		return
	}
	for len(rqp.stalled) > 0 && rqp.recvQ.n > 0 {
		m := rqp.stalled[0]
		rqp.stalled = rqp.stalled[1:]
		rqp.match(m.r)
	}
	if len(rqp.stalled) == 0 {
		return
	}
	// Still no receive posted: the sender NIC retries the head message and
	// receives another RNR NAK.
	head := &rqp.stalled[0]
	head.retries++
	rqp.dev.stats.RNRRetries++
	rqp.dev.tr().Instant(rqp.dev.sim.Now(), telemetry.EvRNRRetry,
		int32(rqp.dev.node), rqp.cacheKey(), int64(head.r.wr.ID), int64(head.retries))
	if lim := rqp.dev.prof().RNRRetryCount; lim > 0 && head.retries > lim {
		// rnr_retry exhausted: the sender QP breaks. Every message it has
		// queued here dies with it (an RC connection is one sender QP).
		src := head.r.qp
		id := head.r.wr.ID
		kept := rqp.stalled[:0]
		for _, m := range rqp.stalled {
			if m.r.qp != src {
				kept = append(kept, m)
			}
		}
		rqp.stalled = kept
		src.errorFrom(rqp.dev, CQE{QPN: src.qpn, WRID: id, Op: OpSend, Status: WCRNRRetryExceeded})
	}
	if len(rqp.stalled) > 0 {
		// Successive NAKs advertise geometrically growing RNR timers, so
		// rnr_retry = 7 buys a total stall budget of 127 base delays
		// (~1.5 ms on FDR) before the connection breaks.
		d := rqp.dev.prof().RNRRetryDelay
		shift := rqp.stalled[0].retries
		if shift > 6 {
			shift = 6
		}
		rqp.armRNRAfter(d << shift)
	}
}

// deliverUD lands a datagram: no receive posted, wrong QP type, or an
// undersized buffer silently consumes the packet.
func deliverUD(net *fabric.Network, toNode int, toQPN uint32, srcNode int, srcQPN uint32, payload []byte, imm uint32, hasImm bool) {
	dst := deviceAt(net, toNode)
	rqp := dst.qps[toQPN]
	if rqp == nil || rqp.cfg.Type != fabric.UD {
		dst.stats.UDNoRecvDrops++
		return
	}
	if rqp.recvQ.n == 0 {
		dst.stats.UDNoRecvDrops++
		return
	}
	rwr := rqp.recvQ.front()
	if rwr.Len < GRHSize+len(payload) {
		// Real hardware completes this receive in error; the common outcome
		// for the application is a lost message.
		rqp.recvQ.drop(1)
		dst.stats.UDNoRecvDrops++
		return
	}
	rqp.recvQ.drop(1)
	copy(rwr.MR.Bytes(rwr.Offset+GRHSize, len(payload)), payload)
	dst.stats.RecvsCompleted++
	rqp.cfg.RecvCQ.push(CQE{
		QPN: rqp.qpn, WRID: rwr.ID, Op: OpRecv, Bytes: GRHSize + len(payload),
		Imm: imm, HasImm: hasImm,
		SrcNode: srcNode, SrcQPN: srcQPN,
	})
}

// remoteMR resolves the region a one-sided work request addresses on the
// responder d. An access outside a registered region is an application bug
// no protocol here can produce, so it panics.
func (d *Device) remoteMR(wr SendWR) *MR {
	rmr := d.mrs[wr.RemoteKey]
	if rmr == nil || rmr.check(wr.RemoteOffset, wr.Len) != nil {
		panic(fmt.Sprintf("verbs: RDMA %v outside remote MR (rkey %d, off %d, len %d)",
			wr.Op, wr.RemoteKey, wr.RemoteOffset, wr.Len))
	}
	return rmr
}

func (qp *QP) postRead(wr SendWR) error {
	if err := qp.rcReady(wr); err != nil {
		return err
	}
	// Request leg: a small control packet to the responder NIC. Its
	// response leg is numbered now, in posting order.
	r := qp.toPeer(wr, qp.dev.net.Prof.ReadRequestBytes)
	r.rpsn = qp.nextPSN(seqResponse)
	qp.sendRC(r, seqRequest)
	return nil
}

// serveRead runs at the responder when Read request r lands: the responder
// NIC DMA-reads the region now — no remote CPU — and streams the bytes back
// as the response leg.
func (r *rcMsg) serveRead() {
	qp, wr := r.qp, &r.wr
	net := qp.dev.net
	remote := deviceAt(net, r.msg.To)
	if qp.fencedAt(remote, wr.ID, OpRead) {
		return
	}
	resp := &rcMsg{qp: qp, wr: *wr, payload: make([]byte, wr.Len)}
	copy(resp.payload, remote.remoteMR(*wr).Bytes(wr.RemoteOffset, wr.Len))
	resp.msg = fabric.Message{
		From: r.msg.To, To: r.msg.From, FromQP: r.msg.ToQP, ToQP: r.msg.FromQP,
		Payload: wr.Len, Service: fabric.RC,
	}
	// A lost response is retransmitted by the responder NIC; each leg
	// carries its own retry_cnt budget. The responder's own QP paces the
	// bulk leg, so a congestion-cut server streams reads at its cut rate.
	resp.arm(seqResponse, r.rpsn)
	if rqp := remote.qps[qp.peerQPN]; rqp != nil {
		rqp.sendPaced(&resp.msg, r.rpsn)
	} else {
		net.Transmit(&resp.msg)
	}
}

func (qp *QP) postWrite(p *sim.Proc, wr SendWR) error {
	if err := qp.rcReady(wr); err != nil {
		return err
	}
	payload, err := qp.stage(p, wr, nil)
	if err != nil {
		return err
	}
	r := qp.toPeer(wr, wr.Len)
	r.payload = payload
	qp.sendRC(r, seqRequest)
	return nil
}

// landWrite runs at the responder when Write r lands: the bytes go straight
// into the addressed region and the ACK heads home.
func (r *rcMsg) landWrite() {
	qp, wr := r.qp, &r.wr
	remote := deviceAt(qp.dev.net, r.msg.To)
	if qp.fencedAt(remote, wr.ID, OpWrite) {
		return
	}
	copy(remote.remoteMR(*wr).Bytes(wr.RemoteOffset, len(r.payload)), r.payload)
	remote.stats.RemoteWrites++
	remote.memWake.Broadcast()
	qp.home(remote.node, remote.prof().PropagationDelay, r, verdictAck)
}

// OpenAll opens one device per node, attaches each to its fabric node so
// delivery callbacks can dispatch, and returns them. Call it exactly once
// per network.
func OpenAll(net *fabric.Network) []*Device {
	devs := make([]*Device, net.Nodes())
	for i := range devs {
		if net.Host(i) != nil {
			panic("verbs: OpenAll called twice for the same network")
		}
		devs[i] = Open(net, i)
		net.SetHost(i, devs[i])
	}
	installECN(net)
	return devs
}

func deviceAt(net *fabric.Network, node int) *Device {
	d, ok := net.Host(node).(*Device)
	if !ok {
		panic("verbs: network node has no verbs device; use OpenAll")
	}
	return d
}
