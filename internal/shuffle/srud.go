package shuffle

import (
	"fmt"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// srUDSend implements the SEND endpoint with RDMA Send/Receive over the
// Unreliable Datagram service (§4.4.2, Fig. 6a). A single Queue Pair
// reaches every peer; messages are capped at the MTU. The same stateless
// credit protocol as RC is used, but credit arrives as small UD datagrams
// on this endpoint's own QP (UD supports no RDMA Write). The sender counts
// every data message per destination and transmits the totals at the end so
// the receiver can detect missing or in-flight packets.
//
// UD sends to a failed destination still complete locally (the datagram
// vanishes on the wire), so buffers keep cycling; only the credit wait
// observes the failed mark.
type srUDSend struct {
	endpoint // scq: send completions (fire at wire time)
	sendPool

	qp  *verbs.QP
	ccq *verbs.CQ // credit datagram arrivals

	creditMR   *verbs.MR // receive slots for credit datagrams
	creditSlot int       // slot size: GRH + HeaderSize

	ahs    []verbs.AH // per destination: the paired receive endpoint's QP
	sent   []uint64   // credit consumed per destination
	credit []uint64   // absolute credit granted per destination
	totals []uint64   // data messages sent per destination

	// hwmc enables one-WQE broadcast through the multicast group mgid.
	hwmc bool
	mgid uint32
}

func (e *srUDSend) sendMemory() int64 { return int64(e.mr.Len() + e.creditMR.Len()) }

// drainCredit consumes pending credit datagrams; absolute credit makes the
// update a simple max, so reordered or duplicated grants are harmless.
func (e *srUDSend) drainCredit(p *sim.Proc) error {
	var es [16]verbs.CQE
	for e.ccq.Len() > 0 {
		n := e.gate.poll(p, e.ccq, es[:])
		for _, c := range es[:n] {
			if c.Status != verbs.WCSuccess {
				return wcErr(c)
			}
			slot := int(c.WRID)
			off := slot * e.creditSlot
			h := getHeader(e.creditMR.Bytes(off+verbs.GRHSize, HeaderSize))
			if h.flags&flagCredit != 0 {
				if h.value > e.credit[h.src] {
					e.credit[h.src] = h.value
				}
			}
			if err := e.postCreditRecv(p, slot); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *srUDSend) postCreditRecv(p *sim.Proc, slot int) error {
	err := e.gate.postRecv(p, e.qp, verbs.RecvWR{
		ID: uint64(slot), MR: e.creditMR, Offset: slot * e.creditSlot, Len: e.creditSlot,
	})
	if err != nil {
		return fmt.Errorf("%w: UD credit repost: %v", ErrTransport, err)
	}
	return nil
}

// awaitSends blocks up to q for send completions and reaps one poll of them.
func (e *srUDSend) awaitSends(p *sim.Proc, q sim.Duration) (bool, error) {
	if !e.scq.WaitNonEmpty(p, q) {
		return false, nil
	}
	var es [16]verbs.CQE
	n := e.gate.poll(p, e.scq, es[:])
	return true, e.reap(es[:n], &e.sendPool)
}

// GetFree implements SendEndpoint.
func (e *srUDSend) GetFree(p *sim.Proc) (*Buf, error) {
	return e.getFree(p, &e.sendPool, nil, e.awaitSends)
}

func (e *srUDSend) waitCredit(p *sim.Proc, dest int) error {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if e.failed[dest] {
			return peerFailedErr(dest)
		}
		if err := e.drainCredit(p); err != nil {
			return err
		}
		if e.sent[dest] < e.credit[dest] {
			e.sent[dest]++
			return nil
		}
		if !w.after(e.ccq.WaitNonEmpty(p, w.step())) {
			return fmt.Errorf("%w: waiting for UD credit from node %d", ErrStalled, dest)
		}
	}
}

// transmit posts b as one datagram toward ah.
func (e *srUDSend) transmit(p *sim.Proc, b *Buf, ah verbs.AH) error {
	return e.post(p, e.qp, verbs.SendWR{
		ID: e.id(b.off), Op: verbs.OpSend,
		MR: e.mr, Offset: b.off, Len: HeaderSize + b.Len,
		Dest: ah,
	}, &e.sendPool)
}

func (e *srUDSend) send(p *sim.Proc, b *Buf, dest []int, flags uint16, value uint64) error {
	h := header{payload: b.Len, flags: flags, src: uint16(e.dev.Node()), value: value}
	me := e.dev.Node()
	if e.hwmc && flags == 0 && len(dest) == e.n {
		// Native multicast broadcast: one credit unit per member, a single
		// work request (one completion), a single uplink serialization.
		e.commit(b, h, 1)
		err := FanOut(me, dest, func(d int) error {
			if err := e.waitCredit(p, d); err != nil {
				return err
			}
			e.totals[d]++
			return nil
		})
		if err != nil {
			return err
		}
		return e.transmit(p, b, verbs.AH{Multicast: true, MGID: e.mgid})
	}
	e.commit(b, h, len(dest))
	return FanOut(me, dest, func(d int) error {
		if err := e.waitCredit(p, d); err != nil {
			return err
		}
		if err := e.transmit(p, b, e.ahs[d]); err != nil {
			return err
		}
		if flags&flagTotal == 0 {
			e.totals[d]++
		}
		return nil
	})
}

// Send implements SendEndpoint.
func (e *srUDSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, 0, 0)
}

// Finish implements SendEndpoint: after the tails, every peer receives a
// total-count datagram carrying how many data messages were sent to it, so
// it can keep waiting for reordered stragglers or declare loss (§4.4.2).
// The totals are the end-of-stream: a datagram may overtake the data it
// follows, so no data buffer can carry it.
func (e *srUDSend) Finish(p *sim.Proc, tails ...Tail) error {
	for _, t := range tails {
		if err := e.Send(p, t.Buf, t.Dest); err != nil {
			return err
		}
	}
	err := FanOut(e.dev.Node(), allNodes(e.n), func(d int) error {
		b, err := e.GetFree(p)
		if err != nil {
			return err
		}
		b.Len = 0
		return e.send(p, b, []int{d}, flagTotal|flagDepleted, e.totals[d])
	})
	if err != nil {
		return err
	}
	return e.flush(p, &e.sendPool, nil, e.awaitSends)
}

// srUDRecv implements the RECEIVE endpoint over UD Send/Receive (Fig. 6b).
// One QP receives from every source; posted receive slots are shared.
// Per-source counters implement the paper's out-of-order Depleted handling:
// the state only transitions once received[src] matches the sender's total,
// and a timeout after the totals are known is treated as packet loss.
type srUDRecv struct {
	endpoint // scq: completions of outgoing credit datagrams

	qp  *verbs.QP
	rcq *verbs.CQ // data arrivals

	bufMR    *verbs.MR
	slots    int
	slotSize int
	perSrc   int

	stageMR *verbs.MR  // per source HeaderSize staging for credit datagrams
	ahs     []verbs.AH // per source: the paired send endpoint's QP
	datas   dataRecs

	creditIssued []uint64
	lastWritten  []uint64
	received     []uint64
	expected     []uint64
	totalKnown   []bool
	knownCount   int

	lossWait sim.Duration // accumulated wait after all totals are known
}

// Depleted implements ProgressReporter: a UD stream is complete only when
// the sender's total is known and every counted message arrived. GetData
// mirrors it into the peer set's done mark on every arrival, so a failed
// source whose total is known and matched owes nothing more; otherwise
// GetData reports ErrPeerFailed instead of running down the
// DepletedTimeout.
func (e *srUDRecv) Depleted(src int) bool {
	return e.has(src) && e.totalKnown[src] && e.received[src] == e.expected[src]
}

func (e *srUDRecv) allDone() bool {
	if e.knownCount < e.n {
		return false
	}
	for s := 0; s < e.n; s++ {
		if e.received[s] != e.expected[s] {
			return false
		}
	}
	return true
}

func (e *srUDRecv) repost(p *sim.Proc, slot, src int) error {
	err := e.gate.postRecv(p, e.qp, verbs.RecvWR{
		ID: uint64(slot), MR: e.bufMR, Offset: slot * e.slotSize, Len: e.slotSize,
	})
	if err != nil {
		return fmt.Errorf("%w: UD repost: %v", ErrTransport, err)
	}
	e.creditIssued[src]++
	if e.creditIssued[src]-e.lastWritten[src] >= uint64(e.cfg.CreditFrequency) {
		if err := e.sendCredit(p, src); err != nil {
			return err
		}
	}
	return e.drain(p, nil)
}

// sendCredit grants absolute credit to src with a small UD datagram; a
// grant toward a failed source would vanish on the dead node's cut links.
// Each attempt restages the current count, as srRCRecv.writeCredit does.
func (e *srUDRecv) sendCredit(p *sim.Proc, src int) error {
	for !e.failed[src] {
		e.lastWritten[src] = e.creditIssued[src]
		off := src * HeaderSize
		putHeader(e.stageMR.Bytes(off, HeaderSize), header{
			flags: flagCredit, src: uint16(e.dev.Node()), value: e.creditIssued[src],
		})
		err := e.gate.post(p, e.qp, verbs.SendWR{
			Op: verbs.OpSend, MR: e.stageMR, Offset: off, Len: HeaderSize,
			Dest: e.ahs[src], Inline: true,
		})
		switch err {
		case nil:
			traceCredit(e.dev, src, int64(e.creditIssued[src]))
			return nil
		case verbs.ErrSQFull:
			e.scq.WaitNonEmpty(p, 0)
			if err := e.drain(p, nil); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: UD credit send: %v", ErrTransport, err)
		}
	}
	return nil
}

// GetData implements RecvEndpoint.
func (e *srUDRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		var es [1]verbs.CQE
		if e.gate.poll(p, e.rcq, es[:]) == 1 {
			w.after(true)
			if es[0].Status != verbs.WCSuccess {
				return nil, wcErr(es[0])
			}
			slot := int(es[0].WRID)
			off := slot*e.slotSize + verbs.GRHSize
			h := getHeader(e.bufMR.Bytes(off, HeaderSize))
			src := int(h.src)
			if h.flags&flagTotal != 0 {
				if !e.totalKnown[src] {
					e.totalKnown[src] = true
					e.knownCount++
				}
				e.expected[src] = h.value
				e.done[src] = e.Depleted(src)
				if err := e.repost(p, slot, src); err != nil {
					return nil, err
				}
				if e.allDone() {
					e.rcq.Kick()
				}
				continue
			}
			e.received[src]++
			e.done[src] = e.Depleted(src)
			if e.allDone() {
				e.rcq.Kick()
			}
			return e.datas.get(src, e.bufMR.Bytes(off+HeaderSize, h.payload), 0, slot), nil
		}
		if e.allDone() {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		q := w.step()
		woke := e.rcq.WaitNonEmpty(p, q)
		if woke {
			e.lossWait = 0
		} else if e.knownCount == e.n {
			// All totals known but counts short: either packets are still in
			// flight (common, reordering) or lost (rare).
			if e.lossWait += q; e.lossWait > e.cfg.DepletedTimeout {
				return nil, fmt.Errorf("%w on node %d: %s",
					ErrDataLoss, e.dev.Node(), e.lossReport())
			}
		}
		if !w.after(woke) {
			return nil, fmt.Errorf("%w: UD GetData on node %d (%d/%d totals)",
				ErrStalled, e.dev.Node(), e.knownCount, e.n)
		}
	}
}

func (e *srUDRecv) lossReport() string {
	missing := 0
	for s := 0; s < e.n; s++ {
		missing += int(e.expected[s] - e.received[s])
	}
	return fmt.Sprintf("%d message(s) missing", missing)
}

// Release implements RecvEndpoint.
func (e *srUDRecv) Release(p *sim.Proc, d *Data) error {
	slot, src := d.slot, d.Src
	e.datas.put(d)
	return e.repost(p, slot, src)
}

func newSRUDSend(dev *verbs.Device, cfg Config, n, tpe int) *srUDSend {
	mtu := dev.Network().Prof.MTU
	pool := tpe * n * cfg.BuffersPerPeer
	creditSlots := 4 * n
	e := &srUDSend{
		// Broadcast posts one send per group member per buffer, and completions
		// sit in the CQ until the application polls; size for the worst case.
		endpoint:   newEndpoint(dev, cfg, n, "srud-send", pool*n+64, 16),
		sendPool:   newSendPool(dev, pool, mtu, 0),
		ccq:        dev.CreateCQ(creditSlots + 16),
		creditSlot: verbs.GRHSize + HeaderSize,
		sent:       make([]uint64, n),
		credit:     make([]uint64, n),
		totals:     make([]uint64, n),
		ahs:        make([]verbs.AH, n),
	}
	e.wake = []*verbs.CQ{e.ccq, e.scq}
	e.creditMR = dev.RegisterMRNoCost(make([]byte, creditSlots*e.creditSlot))
	e.qp = dev.CreateQP(verbs.QPConfig{
		Type: fabric.UD, SendCQ: e.scq, RecvCQ: e.ccq,
		MaxSend: pool*n + 16, MaxRecv: creditSlots + 4,
	})
	return e
}

// primeSend posts the credit-datagram receive windows.
func (e *srUDSend) primeSend(p *sim.Proc) error {
	for slot := 0; slot < 4*e.n; slot++ {
		if err := e.postCreditRecv(p, slot); err != nil {
			return err
		}
	}
	return nil
}

func newSRUDRecv(dev *verbs.Device, cfg Config, n, tpe int) *srUDRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	slots := n * perSrc
	slotSize := verbs.GRHSize + dev.Network().Prof.MTU
	e := &srUDRecv{
		// Credit-datagram completions queue behind bulk data on the wire.
		endpoint: newEndpoint(dev, cfg, n, "srud-recv", slots+64, 8),
		rcq:      dev.CreateCQ(slots + 64),
		slots:    slots, slotSize: slotSize, perSrc: perSrc,
		bufMR:        dev.AllocRingNoCost(slots, slotSize),
		stageMR:      dev.RegisterMRNoCost(make([]byte, n*HeaderSize)),
		ahs:          make([]verbs.AH, n),
		creditIssued: make([]uint64, n),
		lastWritten:  make([]uint64, n),
		received:     make([]uint64, n),
		expected:     make([]uint64, n),
		totalKnown:   make([]bool, n),
	}
	e.wake = []*verbs.CQ{e.rcq, e.scq}
	e.qp = dev.CreateQP(verbs.QPConfig{
		Type: fabric.UD, SendCQ: e.scq, RecvCQ: e.rcq,
		MaxSend: 4 * n, MaxRecv: slots + 4,
	})
	return e
}

// prime posts every data receive slot and records the initial per-source
// credit grant, which wiring communicates to senders out of band.
func (e *srUDRecv) prime(p *sim.Proc) error {
	for slot := 0; slot < e.slots; slot++ {
		err := e.qp.PostRecv(p, verbs.RecvWR{
			ID: uint64(slot), MR: e.bufMR, Offset: slot * e.slotSize, Len: e.slotSize,
		})
		if err != nil {
			return fmt.Errorf("shuffle: UD prime failed: %v", err)
		}
	}
	for src := 0; src < e.n; src++ {
		e.creditIssued[src] = uint64(e.perSrc)
		e.lastWritten[src] = uint64(e.perSrc)
	}
	return nil
}
