package shuffle

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// srRCSend implements the SEND endpoint with RDMA Send/Receive over the
// Reliable Connection service (§4.4.1, Fig. 5a). One QP per peer node; the
// sender transmits while it holds credit, where credit is the absolute
// number of Receive requests the peer has posted, written into creditMR by
// the receiver via RDMA Write. A buffer is reusable once its Send
// completed toward every member of its transmission group.
type srRCSend struct {
	endpoint
	sendPool

	sent     []uint64  // per dest: sends posted on this connection
	creditMR *verbs.MR // per dest 8-byte absolute credit, written by peers
}

func (e *srRCSend) sendMemory() int64 { return int64(e.mr.Len() + e.creditMR.Len()) }

// awaitSends blocks up to q for send completions and reaps one poll of
// them. A buffer pending toward a dead peer will never complete; the
// fragment fails and recovery re-plans over the survivors.
func (e *srRCSend) awaitSends(p *sim.Proc, q sim.Duration) (bool, error) {
	if d, ok := e.anyFailed(); ok {
		return false, peerFailedErr(d)
	}
	if !e.scq.WaitNonEmpty(p, q) {
		return false, nil
	}
	var es [16]verbs.CQE
	n := e.gate.poll(p, e.scq, es[:])
	return true, e.reap(es[:n], &e.sendPool)
}

// GetFree implements SendEndpoint: it polls the send CQ until a buffer has
// completed toward every member of its transmission group.
func (e *srRCSend) GetFree(p *sim.Proc) (*Buf, error) {
	return e.getFree(p, &e.sendPool, nil, e.awaitSends)
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
		if !w.after(e.dev.WaitMemChange(p, w.step())) {
			return fmt.Errorf("%w: waiting for credit from node %d", ErrStalled, dest)
		}
	}
}

func (e *srRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	h := header{payload: b.Len, src: uint16(e.dev.Node())}
	if depleted {
		h.flags = flagDepleted
	}
	e.commit(b, h, len(dest))
	return FanOut(e.dev.Node(), dest, func(d int) error {
		if err := e.waitCredit(p, d); err != nil {
			return err
		}
		err := e.post(p, e.qps[d], verbs.SendWR{
			ID: e.id(b.off), Op: verbs.OpSend,
			MR: e.mr, Offset: b.off, Len: HeaderSize + b.Len,
		}, &e.sendPool)
		if err != nil {
			if e.failed[d] {
				return peerFailedErr(d)
			}
			return postErr(d, err)
		}
		return nil
	})
}

// Send implements SendEndpoint.
func (e *srRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint: the tails carry the Depleted flag, a
// zero-payload Depleted buffer goes to the nodes they missed, then in-flight
// sends are drained.
func (e *srRCSend) Finish(p *sim.Proc, tails ...Tail) error {
	if err := e.endStream(p, tails, e.GetFree, e.send); err != nil {
		return err
	}
	return e.flush(p, &e.sendPool, nil, e.awaitSends)
}

// srRCRecv implements the RECEIVE endpoint over RC Send/Receive (Fig. 5b).
// It pre-posts receive buffers per source, and after every
// CreditFrequency-th post writes the absolute credit back into the sender's
// creditMR with RDMA Write.
type srRCRecv struct {
	endpoint

	rcq *verbs.CQ // receive completions, shared by all QPs

	bufMR   *verbs.MR // receive slots, perSrc per source
	datas   dataRecs
	perSrc  int
	stageMR *verbs.MR // per source 8-byte staging for credit writes

	creditIssued []uint64 // absolute receives posted per source
	lastWritten  []uint64
	creditWin    []remoteWin // where each sender keeps my credit slot
}

func (e *srRCRecv) slotOff(slot int) int { return slot * e.cfg.BufSize }
func (e *srRCRecv) slotSrc(slot int) int { return slot / e.perSrc }

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
	return e.drain(p, nil)
}

// writeCredit transmits the absolute credit for src with RDMA Write. Each
// attempt restages the current count: while a full send queue drains,
// another thread sharing the endpoint may have posted more receives.
func (e *srRCRecv) writeCredit(p *sim.Proc, src int) error {
	for !e.failed[src] {
		e.lastWritten[src] = e.creditIssued[src]
		verbs.PutUint64(e.stageMR.Bytes(8*src, 8), e.creditIssued[src])
		err := e.gate.post(p, e.qps[src], verbs.SendWR{
			Op: verbs.OpWrite, MR: e.stageMR, Offset: 8 * src, Len: 8, Inline: true,
			RemoteKey: e.creditWin[src].rkey, RemoteOffset: e.creditWin[src].base,
		})
		switch err {
		case nil:
			traceCredit(e.dev, src, int64(e.creditIssued[src]))
			return nil
		case verbs.ErrPeerDown:
			return nil // the peer died under us; its credit no longer matters
		case verbs.ErrSQFull:
			e.scq.WaitNonEmpty(p, 0)
			if err := e.drain(p, nil); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: credit write: %v", ErrTransport, err)
		}
	}
	return nil
}

// GetData implements RecvEndpoint.
func (e *srRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		var es [1]verbs.CQE
		if e.gate.poll(p, e.rcq, es[:]) == 1 {
			w.after(true)
			if es[0].Status != verbs.WCSuccess {
				return nil, e.cqeErr(es[0])
			}
			slot := int(es[0].WRID)
			off := e.slotOff(slot)
			h := getHeader(e.bufMR.Bytes(off, HeaderSize))
			if h.flags&flagDepleted != 0 {
				if e.markDone(int(h.src)) {
					e.rcq.Kick()
				}
				if h.payload == 0 {
					if err := e.repost(p, slot); err != nil {
						return nil, err
					}
					continue
				}
			}
			return e.datas.get(int(h.src), e.bufMR.Bytes(off+HeaderSize, h.payload), 0, slot), nil
		}
		if e.allDone() {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		// A wakeup is not progress until the poll above finds a completion.
		if !e.rcq.WaitNonEmpty(p, w.step()) && !w.after(false) {
			return nil, fmt.Errorf("%w: GetData on node %d (%d/%d sources depleted)",
				ErrStalled, e.dev.Node(), e.nDone, e.n)
		}
	}
}

// Release implements RecvEndpoint.
func (e *srRCRecv) Release(p *sim.Proc, d *Data) error {
	slot := d.slot
	e.datas.put(d)
	return e.repost(p, slot)
}

func newSRRCSend(dev *verbs.Device, cfg Config, n, tpe int) *srRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &srRCSend{
		endpoint: newEndpoint(dev, cfg, n, "srrc-send", 2*pool*n+64, 16),
		sendPool: newSendPool(dev, pool, cfg.BufSize, 0),
		sent:     make([]uint64, n),
		creditMR: dev.RegisterMRNoCost(make([]byte, 8*n)),
	}
	e.wake, e.wakeMem = []*verbs.CQ{e.scq}, dev
	e.createRCQPs(e.scq, 2*pool+16, 4)
	return e
}

func newSRRCRecv(dev *verbs.Device, cfg Config, n, tpe int) *srRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	slots := n * perSrc
	e := &srRCRecv{
		// Credit-write completions can pile up behind bulk data in the NIC's
		// transmit FIFO, so size their CQ to the worst case of one write per
		// posted receive.
		endpoint:     newEndpoint(dev, cfg, n, "srrc-recv", slots+64, 8),
		perSrc:       perSrc,
		rcq:          dev.CreateCQ(slots + 64),
		bufMR:        dev.AllocRingNoCost(slots, cfg.BufSize),
		stageMR:      dev.RegisterMRNoCost(make([]byte, 8*n)),
		creditIssued: make([]uint64, n),
		lastWritten:  make([]uint64, n),
		creditWin:    make([]remoteWin, n),
	}
	e.lenient = true
	e.wake = []*verbs.CQ{e.rcq, e.scq}
	e.createRCQPs(e.rcq, 4*n, perSrc+4)
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
