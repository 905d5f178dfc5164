package shuffle

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// The WR/RC endpoint implements the paper's first future-work item: a
// shuffling endpoint based on the one-sided RDMA Write primitive. It is the
// push-side mirror of the RDMA Read design (§4.4.3):
//
//   - the RECEIVE endpoint owns the data buffers; it grants empty slot
//     addresses to each sender through the sender's SlotArr circular queue
//     (the dual of FreeArr);
//   - SEND writes the full transmission buffer directly into a granted
//     remote slot with RDMA Write, then announces it through the receiver's
//     ValidArr; both writes ride the same QP, so the Reliable Connection
//     ordering guarantees the data has landed before the announcement;
//   - RELEASE re-grants the slot to its sender.
//
// Compared with RDMA Read, buffer reuse needs no remote notification: the
// sender's buffer is free as soon as its Write completions arrive, which is
// why the design behaves better under broadcast.

// wrRCSend implements the SEND endpoint over one-sided RDMA Write.
type wrRCSend struct {
	endpoint // scq: data + announcement write completions
	sendPool // data writes carry the buffer's id; announcements id 0

	slotArr  wordRing    // remote-slot grants written by receivers
	slotWin  []remoteWin // each receiver's data-slot region
	validOut wordRing    // my queue in each receiver's ValidArr
}

func (e *wrRCSend) sendMemory() int64 {
	return int64(e.mr.Len() + e.slotArr.mr.Len() + e.validOut.mr.Len())
}

// reapWrites returns buffers whose data writes completed to the pool.
func (e *wrRCSend) reapWrites(p *sim.Proc) error { return e.drain(p, &e.sendPool) }

// popSlot takes one granted remote slot for dest, blocking until the
// receiver grants one.
func (e *wrRCSend) popSlot(p *sim.Proc, dest int) (int, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if e.failed[dest] {
			return 0, peerFailedErr(dest)
		}
		if e.qps[dest].State() == verbs.QPError {
			// Grants arrive over the reverse direction of this connection;
			// once it errors no grant can ever land, so fail fast.
			return 0, fmt.Errorf("%w: connection to node %d is in the error state", ErrTransport, dest)
		}
		if v, ok := e.slotArr.take(dest); ok {
			off, _, _ := unpackSlot(v)
			return off, nil
		}
		if err := e.reapWrites(p); err != nil {
			return 0, err
		}
		if !w.after(e.dev.WaitMemChange(p, w.step())) {
			return 0, fmt.Errorf("%w: WR waiting for slot grant from node %d", ErrStalled, dest)
		}
	}
}

// awaitWrites blocks up to q for write completions. Writes toward a dead
// receiver never complete, so the wait fails instead.
func (e *wrRCSend) awaitWrites(p *sim.Proc, q sim.Duration) (bool, error) {
	if d, ok := e.anyFailed(); ok {
		return false, peerFailedErr(d)
	}
	return e.scq.WaitNonEmpty(p, q), nil
}

// GetFree implements SendEndpoint: a buffer is reusable once its data
// writes complete locally — no remote notification needed.
func (e *wrRCSend) GetFree(p *sim.Proc) (*Buf, error) {
	return e.getFree(p, &e.sendPool, e.reapWrites, e.awaitWrites)
}

func (e *wrRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	e.commit(b, header{payload: b.Len, src: uint16(e.dev.Node())}, len(dest))
	length := HeaderSize + b.Len
	err := FanOut(e.dev.Node(), dest, func(d int) error {
		slot, err := e.popSlot(p, d)
		if err != nil {
			return err
		}
		// Data write into the granted remote slot.
		err = e.post(p, e.qps[d], verbs.SendWR{
			ID: e.id(b.off), Op: verbs.OpWrite,
			MR: e.mr, Offset: b.off, Len: length,
			RemoteKey: e.slotWin[d].rkey, RemoteOffset: e.slotWin[d].base + slot,
		}, &e.sendPool)
		if err == nil {
			// Announcement write, ordered behind the data on the same QP.
			err = e.putWord(p, &e.validOut, d, packSlot(slot, length, depleted), &e.sendPool)
		}
		return postErr(d, err)
	})
	if err != nil {
		return err
	}
	return e.reapWrites(p)
}

// Send implements SendEndpoint.
func (e *wrRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint: the tails are announced as Depleted, a
// zero-payload Depleted buffer to the nodes they missed.
func (e *wrRCSend) Finish(p *sim.Proc, tails ...Tail) error {
	if err := e.endStream(p, tails, e.GetFree, e.send); err != nil {
		return err
	}
	return e.flush(p, &e.sendPool, e.reapWrites, e.awaitWrites)
}

// wrRCRecv implements the RECEIVE endpoint over one-sided RDMA Write: it
// owns the data slots, polls its ValidArr queues for announcements, and
// re-grants consumed slots.
type wrRCRecv struct {
	endpoint // scq: grant-write completions

	slotMR *verbs.MR // data slots, perSrc per source
	perSrc int

	validArr wordRing // announcements written by senders
	slotOut  wordRing // my queue in each sender's SlotArr
}

// grant hands slot (an offset within slotMR) to sender src. A dead sender
// will never consume the grant, so none is written.
func (e *wrRCRecv) grant(p *sim.Proc, src, slot int) error {
	if e.failed[src] {
		return nil
	}
	err := e.putWord(p, &e.slotOut, src, packSlot(slot, 0, false), nil)
	if err == verbs.ErrPeerDown {
		return nil
	}
	if err != nil {
		return err
	}
	traceCredit(e.dev, src, int64(slot))
	return e.drain(p, nil)
}

// GetData implements RecvEndpoint: announcements arrive purely through
// memory, so the wait path watches for remote writes. A marker's re-grant
// posts, and posting can block; an announcement that lands meanwhile from a
// source the scan already passed raised no memory change the wait below
// could see, so a scan that granted anything scans again before it waits.
func (e *wrRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		granted := false
		for src := 0; src < e.n; src++ {
			v, ok := e.validArr.take(src)
			if !ok {
				continue
			}
			slot, _, dep := unpackSlot(v)
			h := getHeader(e.slotMR.Bytes(slot, HeaderSize))
			if dep && e.markDone(src) {
				e.dev.KickMemWaiters()
			}
			if h.payload == 0 {
				// Marker: re-grant immediately.
				if err := e.grant(p, src, slot); err != nil {
					return nil, err
				}
				granted = true
				continue
			}
			return &Data{
				Src:     int(h.src),
				Payload: e.slotMR.Bytes(slot+HeaderSize, h.payload),
				slot:    slot,
			}, nil
		}
		if granted {
			continue
		}
		if e.allDone() {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		if !w.after(e.dev.WaitMemChange(p, w.step())) {
			return nil, fmt.Errorf("%w: WR GetData on node %d (%d/%d depleted)",
				ErrStalled, e.dev.Node(), e.nDone, e.n)
		}
	}
}

// Release implements RecvEndpoint.
func (e *wrRCRecv) Release(p *sim.Proc, d *Data) error {
	// The slot belongs to the source that filled it; slots are partitioned
	// per source, so recover the source from the slot index.
	src := d.slot / (e.perSrc * e.cfg.BufSize)
	return e.grant(p, src, d.slot)
}

func newWRRCSend(dev *verbs.Device, cfg Config, n, tpe, grantCap int) *wrRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &wrRCSend{
		endpoint: newEndpoint(dev, cfg, n, "wr-send", 4*pool*n+64, 16),
		sendPool: newSendPool(dev, "wr-free", pool, cfg.BufSize, 1),
		slotArr:  newWordRing(dev, n, grantCap),
		validOut: newWordRing(dev, n, grantCap),
		slotWin:  make([]remoteWin, n),
	}
	e.wake, e.wakeMem = []*verbs.CQ{e.scq}, dev
	e.createRCQPs(e.scq, 4*pool+16, 4)
	return e
}

func newWRRCRecv(dev *verbs.Device, cfg Config, n, tpe int) *wrRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &wrRCRecv{
		endpoint: newEndpoint(dev, cfg, n, "wr-recv", 4*n*perSrc+64, 8),
		perSrc:   perSrc,
		slotMR:   dev.AllocRingNoCost(n*perSrc, cfg.BufSize),
		validArr: newWordRing(dev, n, perSrc+1),
		slotOut:  newWordRing(dev, n, perSrc+1),
	}
	e.lenient = true
	e.wake, e.wakeMem = []*verbs.CQ{e.scq}, dev
	e.createRCQPs(e.scq, 2*perSrc+16, 4)
	return e
}
