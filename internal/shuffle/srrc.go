package shuffle

import (
	"fmt"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// waitQuantum is the polling granularity of endpoint wait loops; it bounds
// the latency of observing conditions that have no direct wakeup path.
// Fruitless waits back off exponentially up to maxWaitQuantum so a stalled
// endpoint re-polls ever less often while it runs down its StallTimeout.
const (
	waitQuantum    = 200 * time.Microsecond
	maxWaitQuantum = 16 * waitQuantum
)

// waiter paces one blocking endpoint call: every fruitless wait doubles the
// next quantum (productive work resets it) and accumulates toward the
// StallTimeout bound, converting a protocol deadlock into a diagnosable
// error instead of a hang. Wakeups themselves are event-driven (condition
// broadcasts); the quantum only sets how often the loop re-checks state
// that has no direct wakeup path.
type waiter struct {
	limit   sim.Duration
	quantum sim.Duration
	waited  sim.Duration
}

func newWaiter(limit sim.Duration) waiter {
	return waiter{limit: limit, quantum: waitQuantum}
}

// step returns the quantum for the upcoming wait.
func (w *waiter) step() sim.Duration { return w.quantum }

// progress resets the backoff after productive work.
func (w *waiter) progress() { w.quantum, w.waited = waitQuantum, 0 }

// idle records a fruitless wait of the current quantum and reports false
// once the accumulated wait exceeds the stall limit.
func (w *waiter) idle() bool {
	w.waited += w.quantum
	if w.quantum < maxWaitQuantum {
		w.quantum *= 2
		if w.quantum > maxWaitQuantum {
			w.quantum = maxWaitQuantum
		}
	}
	return w.waited <= w.limit
}

// remoteWin addresses a window of remote registered memory.
type remoteWin struct {
	rkey uint32
	base int
}

// srRCSend implements the SEND endpoint with RDMA Send/Receive over the
// Reliable Connection service (§4.4.1, Fig. 5a). One QP per peer node; the
// sender transmits while it holds credit, where credit is the absolute
// number of Receive requests the peer has posted, written into creditMR by
// the receiver via RDMA Write.
type srRCSend struct {
	dev *verbs.Device
	cfg Config
	n   int

	qps []*verbs.QP // per destination node
	cq  *verbs.CQ   // send completions for all QPs (one poll serves all)

	gate epGate

	mr       *verbs.MR // transmission buffer pool
	poolBufs int
	free     *sim.Queue[int] // free buffer offsets
	pending  map[int]int     // buffer offset -> outstanding send completions

	sent     []uint64  // per dest: sends posted on this connection
	creditMR *verbs.MR // per dest 8-byte absolute credit, written by peers

	// failed marks destinations declared dead by the connection manager;
	// qpDest maps each connection's QPN back to its destination so error
	// completions can be attributed.
	failed []bool
	qpDest map[uint32]int
}

// DrainPeer and ClosePeer implement PeerDrainer: blocked senders wake and
// observe the failed flag instead of waiting on credit the dead receiver
// will never write.
func (e *srRCSend) DrainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *srRCSend) ClosePeer(peer int) {
	e.cq.Kick()
	e.dev.KickMemWaiters()
}

// ReopenPeer implements PeerResumer: the failed mark clears and the
// sent/credit counters stay as they were — the absolute-credit protocol
// needs no reset, so a drain/reopen cycle leaks nothing.
func (e *srRCSend) ReopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

// anyFailed returns a failed destination this endpoint still owes traffic,
// if one exists.
func (e *srRCSend) anyFailed() (int, bool) {
	for d, f := range e.failed {
		if f {
			return d, true
		}
	}
	return 0, false
}

// sendErr attributes a post/completion failure to a dead peer when possible.
func (e *srRCSend) sendErr(dest int, err error) error {
	if err == verbs.ErrPeerDown || e.failed[dest] {
		return peerFailedErr(dest)
	}
	return err
}

func (e *srRCSend) buf(off int) *Buf {
	return &Buf{Data: e.mr.Bytes(off+HeaderSize, e.cfg.BufSize-HeaderSize), off: off}
}

// GetFree implements SendEndpoint: it polls the send CQ until a buffer has
// completed toward every member of its transmission group.
func (e *srRCSend) GetFree(p *sim.Proc) (*Buf, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if off, ok := e.free.TryGet(); ok {
			return e.buf(off), nil
		}
		if d, ok := e.anyFailed(); ok {
			// A buffer pending toward the dead peer will never complete; the
			// fragment fails and recovery re-plans over the survivors.
			return nil, peerFailedErr(d)
		}
		var es [16]verbs.CQE
		if !e.cq.WaitNonEmpty(p, w.step()) {
			if !w.idle() {
				return nil, fmt.Errorf("%w: GetFree on node %d", ErrStalled, e.dev.Node())
			}
			continue
		}
		w.progress()
		n := e.gate.poll(p, e.cq, es[:])
		if err := e.reap(es[:n]); err != nil {
			return nil, err
		}
	}
}

// reap processes send completions, returning fully-completed buffers to the
// free list. A completion with an error status (retry exhaustion, or a
// flush after the QP errored) aborts the endpoint.
func (e *srRCSend) reap(es []verbs.CQE) error {
	var err error
	for _, c := range es {
		if c.Status != verbs.WCSuccess {
			if err == nil {
				if d, ok := e.qpDest[c.QPN]; ok && (c.Status == verbs.WCPeerDown || e.failed[d]) {
					err = peerFailedErr(d)
				} else {
					err = wcErr(c)
				}
			}
			continue
		}
		off := int(c.WRID)
		e.pending[off]--
		if e.pending[off] == 0 {
			delete(e.pending, off)
			e.free.Put(off)
		}
	}
	return err
}

// waitCredit blocks until the connection to dest has spare credit, then
// consumes one unit.
func (e *srRCSend) waitCredit(p *sim.Proc, dest int) error {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if e.failed[dest] {
			return peerFailedErr(dest)
		}
		if e.qps[dest].State() == verbs.QPError {
			// The peer can never grant more credit over a dead connection;
			// fail fast instead of running down the stall timeout.
			return fmt.Errorf("%w: connection to node %d is in the error state", ErrTransport, dest)
		}
		credit := verbs.ReadUint64(e.creditMR.Bytes(8*dest, 8))
		if e.sent[dest] < credit {
			e.sent[dest]++
			return nil
		}
		if !e.dev.WaitMemChange(p, w.step()) {
			if !w.idle() {
				return fmt.Errorf("%w: waiting for credit from node %d", ErrStalled, dest)
			}
			continue
		}
		w.progress()
	}
}

func (e *srRCSend) post(p *sim.Proc, dest, off, length int) error {
	for {
		err := e.gate.post(p, e.qps[dest], verbs.SendWR{
			ID: uint64(off), Op: verbs.OpSend,
			MR: e.mr, Offset: off, Len: length,
		})
		if err == nil {
			return nil
		}
		if err != verbs.ErrSQFull {
			return err
		}
		var es [16]verbs.CQE
		e.cq.WaitNonEmpty(p, 0)
		n := e.gate.poll(p, e.cq, es[:])
		if err := e.reap(es[:n]); err != nil {
			return err
		}
	}
}

func (e *srRCSend) send(p *sim.Proc, b *Buf, dest []int, flags uint16) error {
	putHeader(e.mr.Bytes(b.off, HeaderSize), header{payload: b.Len, flags: flags, src: uint16(e.dev.Node())})
	e.pending[b.off] = len(dest)
	for _, d := range dest {
		if err := e.waitCredit(p, d); err != nil {
			return err
		}
		if err := e.post(p, d, b.off, HeaderSize+b.Len); err != nil {
			return e.sendErr(d, err)
		}
	}
	return nil
}

// Send implements SendEndpoint.
func (e *srRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, 0)
}

// Finish implements SendEndpoint: a zero-payload buffer tagged Depleted is
// multicast to every node, then in-flight sends are drained.
func (e *srRCSend) Finish(p *sim.Proc) error {
	b, err := e.GetFree(p)
	if err != nil {
		return err
	}
	all := make([]int, e.n)
	for i := range all {
		all[i] = i
	}
	b.Len = 0
	if err := e.send(p, b, all, flagDepleted); err != nil {
		return err
	}
	w := newWaiter(e.cfg.StallTimeout)
	for len(e.pending) > 0 {
		if d, ok := e.anyFailed(); ok {
			return peerFailedErr(d)
		}
		var es [16]verbs.CQE
		if !e.cq.WaitNonEmpty(p, w.step()) {
			if !w.idle() {
				return fmt.Errorf("%w: Finish flush on node %d", ErrStalled, e.dev.Node())
			}
			continue
		}
		w.progress()
		n := e.gate.poll(p, e.cq, es[:])
		if err := e.reap(es[:n]); err != nil {
			return err
		}
	}
	return nil
}

// srRCRecv implements the RECEIVE endpoint over RC Send/Receive (Fig. 5b).
// It pre-posts receive buffers per source, and after every
// CreditFrequency-th post writes the absolute credit back into the sender's
// creditMR with RDMA Write.
type srRCRecv struct {
	dev *verbs.Device
	cfg Config
	n   int

	qps []*verbs.QP // per source node
	rcq *verbs.CQ   // receive completions, shared by all QPs
	wcq *verbs.CQ   // completions of outgoing credit writes

	gate epGate

	bufMR   *verbs.MR // receive slots, perSrc per source
	perSrc  int
	stageMR *verbs.MR // per source 8-byte staging for credit writes

	creditIssued []uint64 // absolute receives posted per source
	lastWritten  []uint64
	creditWin    []remoteWin // where each sender keeps my credit slot

	depleted   int    // sources that have sent their Depleted marker
	depletedBy []bool // which sources those were

	// failed marks sources declared dead by the connection manager; qpSrc
	// attributes completions to their source connection.
	failed []bool
	qpSrc  map[uint32]int
}

func (e *srRCRecv) slotOff(slot int) int { return slot * e.cfg.BufSize }
func (e *srRCRecv) slotSrc(slot int) int { return slot / e.perSrc }

// DrainPeer and ClosePeer implement PeerDrainer. A failed source that has
// already sent its Depleted marker owes nothing, so the receiver can still
// finish; otherwise GetData reports ErrPeerFailed instead of waiting for
// data the dead node will never send.
func (e *srRCRecv) DrainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *srRCRecv) ClosePeer(peer int) {
	e.rcq.Kick()
	e.wcq.Kick()
}

// ReopenPeer implements PeerResumer.
func (e *srRCRecv) ReopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

// Depleted implements ProgressReporter: the stream from src completed once
// its Depleted marker arrived.
func (e *srRCRecv) Depleted(src int) bool {
	return src >= 0 && src < e.n && e.depletedBy[src]
}

// missingFailed returns a failed source whose stream is still incomplete.
func (e *srRCRecv) missingFailed() (int, bool) {
	for s, f := range e.failed {
		if f && !e.depletedBy[s] {
			return s, true
		}
	}
	return 0, false
}

// repost returns slot to its source QP and advances the credit protocol.
func (e *srRCRecv) repost(p *sim.Proc, slot int) error {
	src := e.slotSrc(slot)
	if e.failed[src] {
		// The connection is torn down; the slot is dead but so is its
		// source — nothing further arrives on it.
		return nil
	}
	err := e.gate.postRecv(p, e.qps[src], verbs.RecvWR{
		ID: uint64(slot), MR: e.bufMR, Offset: e.slotOff(slot), Len: e.cfg.BufSize,
	})
	if err != nil {
		return fmt.Errorf("%w: repost recv on node %d: %v", ErrTransport, e.dev.Node(), err)
	}
	e.creditIssued[src]++
	if e.creditIssued[src]-e.lastWritten[src] >= uint64(e.cfg.CreditFrequency) {
		if err := e.writeCredit(p, src); err != nil {
			return err
		}
	}
	// Reap completed credit writes opportunistically.
	return e.drainWrites(p)
}

// drainWrites reaps completed credit writes, surfacing any that failed.
func (e *srRCRecv) drainWrites(p *sim.Proc) error {
	var es [8]verbs.CQE
	for e.wcq.Len() > 0 {
		n := e.gate.poll(p, e.wcq, es[:])
		for _, c := range es[:n] {
			if c.Status != verbs.WCSuccess {
				if s, ok := e.qpSrc[c.QPN]; ok && (c.Status == verbs.WCPeerDown || e.failed[s]) {
					// A credit write toward a dead peer flushed; the receiver
					// itself loses nothing.
					continue
				}
				return wcErr(c)
			}
		}
	}
	return nil
}

// writeCredit transmits the absolute credit for src with RDMA Write.
func (e *srRCRecv) writeCredit(p *sim.Proc, src int) error {
	if e.failed[src] {
		return nil
	}
	e.lastWritten[src] = e.creditIssued[src]
	verbs.PutUint64(e.stageMR.Bytes(8*src, 8), e.creditIssued[src])
	err := e.gate.post(p, e.qps[src], verbs.SendWR{
		Op: verbs.OpWrite, MR: e.stageMR, Offset: 8 * src, Len: 8, Inline: true,
		RemoteKey: e.creditWin[src].rkey, RemoteOffset: e.creditWin[src].base,
	})
	if err == verbs.ErrSQFull {
		e.wcq.WaitNonEmpty(p, 0)
		if err := e.drainWrites(p); err != nil {
			return err
		}
		return e.writeCredit(p, src)
	}
	if err == verbs.ErrPeerDown {
		return nil // the peer died under us; its credit no longer matters
	}
	if err != nil {
		return fmt.Errorf("%w: credit write: %v", ErrTransport, err)
	}
	traceCredit(e.dev, src, int64(e.creditIssued[src]))
	return nil
}

// GetData implements RecvEndpoint.
func (e *srRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		var es [1]verbs.CQE
		if e.gate.poll(p, e.rcq, es[:]) == 1 {
			w.progress()
			if es[0].Status != verbs.WCSuccess {
				if s, ok := e.qpSrc[es[0].QPN]; ok && (es[0].Status == verbs.WCPeerDown || e.failed[s]) {
					return nil, peerFailedErr(s)
				}
				return nil, wcErr(es[0])
			}
			slot := int(es[0].WRID)
			off := e.slotOff(slot)
			h := getHeader(e.bufMR.Bytes(off, HeaderSize))
			if h.flags&flagDepleted != 0 {
				e.depleted++
				e.depletedBy[int(h.src)] = true
				if e.depleted >= e.n {
					e.rcq.Kick()
				}
				if h.payload == 0 {
					if err := e.repost(p, slot); err != nil {
						return nil, err
					}
					continue
				}
			}
			return &Data{
				Src:     int(h.src),
				Payload: e.bufMR.Bytes(off+HeaderSize, h.payload),
				slot:    slot,
			}, nil
		}
		if e.depleted >= e.n {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		if !e.rcq.WaitNonEmpty(p, w.step()) {
			if !w.idle() {
				return nil, fmt.Errorf("%w: GetData on node %d (%d/%d sources depleted)",
					ErrStalled, e.dev.Node(), e.depleted, e.n)
			}
		}
	}
}

// Release implements RecvEndpoint.
func (e *srRCRecv) Release(p *sim.Proc, d *Data) error {
	return e.repost(p, d.slot)
}

// newSRRCPair builds the per-node send and receive endpoint halves; comm
// wiring connects QPs and exchanges windows afterwards.
func newSRRCSend(dev *verbs.Device, cfg Config, n, tpe int) *srRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &srRCSend{
		dev: dev, cfg: cfg, n: n,
		poolBufs: pool,
		gate:     newEPGate(dev.Sim(), fmt.Sprintf("srrc-send@%d", dev.Node())),
		free:     sim.NewQueue[int](dev.Sim(), fmt.Sprintf("srrc-free@%d", dev.Node())),
		pending:  make(map[int]int),
		sent:     make([]uint64, n),
		failed:   make([]bool, n),
		qpDest:   make(map[uint32]int),
	}
	e.cq = dev.CreateCQ(2*pool*n + 64)
	e.mr = dev.AllocRingNoCost(pool, cfg.BufSize)
	e.creditMR = dev.RegisterMRNoCost(make([]byte, 8*n))
	for i := 0; i < pool; i++ {
		e.free.Put(i * cfg.BufSize)
	}
	e.qps = make([]*verbs.QP, n)
	for d := 0; d < n; d++ {
		e.qps[d] = dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: e.cq, RecvCQ: e.cq,
			MaxSend: 2*pool + 16, MaxRecv: 4,
		})
		e.qpDest[e.qps[d].QPN()] = d
	}
	return e
}

func newSRRCRecv(dev *verbs.Device, cfg Config, n, tpe int) *srRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &srRCRecv{
		dev: dev, cfg: cfg, n: n, perSrc: perSrc,
		gate:         newEPGate(dev.Sim(), fmt.Sprintf("srrc-recv@%d", dev.Node())),
		creditIssued: make([]uint64, n),
		lastWritten:  make([]uint64, n),
		creditWin:    make([]remoteWin, n),
		depletedBy:   make([]bool, n),
		failed:       make([]bool, n),
		qpSrc:        make(map[uint32]int),
	}
	slots := n * perSrc
	e.rcq = dev.CreateCQ(slots + 64)
	// Credit-write completions can pile up behind bulk data in the NIC's
	// transmit FIFO, so size this CQ to the worst case of one write per
	// posted receive.
	e.wcq = dev.CreateCQ(slots + 64)
	e.bufMR = dev.AllocRingNoCost(slots, cfg.BufSize)
	e.stageMR = dev.RegisterMRNoCost(make([]byte, 8*n))
	e.qps = make([]*verbs.QP, n)
	for s := 0; s < n; s++ {
		e.qps[s] = dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: e.wcq, RecvCQ: e.rcq,
			MaxSend: 4 * n, MaxRecv: perSrc + 4,
		})
		e.qpSrc[e.qps[s].QPN()] = s
	}
	return e
}

// prime posts the initial receive windows and records the initial credit,
// which the wiring communicates to senders out of band (part of connection
// setup).
func (e *srRCRecv) prime(p *sim.Proc) error {
	for src := 0; src < e.n; src++ {
		for i := 0; i < e.perSrc; i++ {
			slot := src*e.perSrc + i
			err := e.qps[src].PostRecv(p, verbs.RecvWR{
				ID: uint64(slot), MR: e.bufMR, Offset: e.slotOff(slot), Len: e.cfg.BufSize,
			})
			if err != nil {
				return fmt.Errorf("shuffle: prime recv failed: %v", err)
			}
		}
		e.creditIssued[src] = uint64(e.perSrc)
		e.lastWritten[src] = uint64(e.perSrc)
	}
	return nil
}
