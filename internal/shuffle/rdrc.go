package shuffle

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// rdRCSend implements the SEND endpoint with one-sided RDMA Read over the
// Reliable Connection service (§4.4.3, Fig. 7a). The sender stays passive
// on the data path: SEND only announces full buffers by writing their
// addresses into each receiver's ValidArr with RDMA Write, and GETFREE
// harvests buffer addresses that receivers returned through the local
// FreeArr. The data itself moves when receivers issue RDMA Reads.
type rdRCSend struct {
	endpoint // scq: completions of outgoing ValidArr writes
	sendPool // receivers read from it directly

	freeArr  wordRing // buffer addresses returned by receivers
	validOut wordRing // my queue in each receiver's ValidArr
}

func (e *rdRCSend) sendMemory() int64 {
	return int64(e.mr.Len() + e.freeArr.mr.Len() + e.validOut.mr.Len())
}

// reclaim harvests every FreeArr queue for buffers returned by receivers,
// then reaps completed ValidArr writes.
func (e *rdRCSend) reclaim(p *sim.Proc) error {
	for src := 0; src < e.n; src++ {
		for {
			v, ok := e.freeArr.take(src)
			if !ok {
				break
			}
			off, _, _ := unpackSlot(v)
			if err := e.complete(off); err != nil {
				return err
			}
		}
	}
	return e.drain(p, nil)
}

// awaitFrees blocks up to q for a receiver to write into FreeArr. A dead
// receiver never returns buffers, so the wait fails instead.
func (e *rdRCSend) awaitFrees(p *sim.Proc, q sim.Duration) (bool, error) {
	if d, ok := e.anyFailed(); ok {
		return false, peerFailedErr(d)
	}
	return e.dev.WaitMemChange(p, q), nil
}

// GetFree implements SendEndpoint (Alg. 3, GETFREE): it returns a buffer
// only once every destination in its transmission group has marked it free.
func (e *rdRCSend) GetFree(p *sim.Proc) (*Buf, error) {
	return e.getFree(p, &e.sendPool, e.reclaim, e.awaitFrees)
}

func (e *rdRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	e.commit(b, header{payload: b.Len, src: uint16(e.dev.Node())}, len(dest))
	word := packSlot(b.off, HeaderSize+b.Len, depleted)
	err := FanOut(e.dev.Node(), dest, func(d int) error {
		// Announce (off, length) in d's ValidArr.
		if e.failed[d] {
			return peerFailedErr(d)
		}
		return postErr(d, e.putWord(p, &e.validOut, d, word, nil))
	})
	if err != nil {
		return err
	}
	return e.drain(p, nil)
}

// Send implements SendEndpoint.
func (e *rdRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint: the tails are announced as Depleted, a
// zero-payload Depleted buffer to the nodes they missed, then the endpoint
// waits for receivers to return every outstanding buffer, since buffers may
// not be unregistered while a remote Read could still target them.
func (e *rdRCSend) Finish(p *sim.Proc, tails ...Tail) error {
	if err := e.endStream(p, tails, e.GetFree, e.send); err != nil {
		return err
	}
	return e.flush(p, &e.sendPool, e.reclaim, e.awaitFrees)
}

// rdRCRecv implements the RECEIVE endpoint over one-sided RDMA Read
// (§4.4.3, Fig. 7b). GETDATA first turns ValidArr announcements into RDMA
// Read requests while local destination buffers are available, then waits
// for read completions. RELEASE returns the remote buffer's address through
// the sender's FreeArr and recycles the local buffer onto LocalArr.
type rdRCRecv struct {
	endpoint // scq: read + FreeArr-write completions

	validArr wordRing // announcements written by senders
	freeOut  wordRing // my queue in each sender's FreeArr

	localMR  *verbs.MR   // local destination buffers for incoming reads
	localArr [][]int     // per source: stack of free local buffer offsets
	dataWin  []remoteWin // per source: that sender's data pool MR

	nextWRID     uint64
	readCtx      map[uint64]rdReadCtx
	outstanding  int
	ready        dataQueue
	pendingFrees []pendingFree
}

type rdReadCtx struct {
	src       int
	remoteOff int
	localOff  int
	depleted  bool
}

// postDrain posts wr toward src; while the send queue is full it waits for
// completions and handles them, since a finished read frees a queue slot.
func (e *rdRCRecv) postDrain(p *sim.Proc, src int, wr verbs.SendWR) error {
	for {
		err := e.gate.post(p, e.qps[src], wr)
		if err != verbs.ErrSQFull {
			return err
		}
		if err := e.handleReady(p, true); err != nil {
			return err
		}
	}
}

// issueReads converts consumable ValidArr entries into RDMA Read requests
// (Alg. 3, GETDATA lines 19-24).
func (e *rdRCRecv) issueReads(p *sim.Proc) error {
	for src := 0; src < e.n; src++ {
		if e.failed[src] {
			// The sender's pool is unreachable; any announced-but-unread
			// buffers die with it.
			continue
		}
		for len(e.localArr[src]) > 0 {
			v, ok := e.validArr.take(src)
			if !ok {
				break
			}
			off, length, dep := unpackSlot(v)
			last := len(e.localArr[src]) - 1
			local := e.localArr[src][last]
			e.localArr[src] = e.localArr[src][:last]
			e.nextWRID++
			wrid := e.nextWRID
			e.readCtx[wrid] = rdReadCtx{src: src, remoteOff: off, localOff: local, depleted: dep}
			err := e.postDrain(p, src, verbs.SendWR{
				ID: wrid, Op: verbs.OpRead,
				MR: e.localMR, Offset: local, Len: length,
				RemoteKey: e.dataWin[src].rkey, RemoteOffset: e.dataWin[src].base + off,
			})
			if err != nil {
				return postErr(src, err)
			}
			e.outstanding++
		}
	}
	return nil
}

// handleReady processes completions, queueing finished reads as ready Data.
// With block set it waits for at least one completion first (used only when
// operations are known to be outstanding, so the wait always terminates).
func (e *rdRCRecv) handleReady(p *sim.Proc, block bool) error {
	var es [16]verbs.CQE
	for {
		if e.scq.Len() == 0 {
			if !block {
				return nil
			}
			e.scq.WaitNonEmpty(p, 0)
		}
		n := e.gate.poll(p, e.scq, es[:])
		if err := e.handle(es[:n]); err != nil {
			return err
		}
		block = false
	}
}

func (e *rdRCRecv) handle(es []verbs.CQE) error {
	for _, c := range es {
		if c.Status != verbs.WCSuccess {
			return e.cqeErr(c)
		}
		if c.Op != verbs.OpRead {
			continue // FreeArr write completion
		}
		ctx, ok := e.readCtx[c.WRID]
		if !ok {
			return fmt.Errorf("shuffle: unknown read completion %d", c.WRID)
		}
		delete(e.readCtx, c.WRID)
		e.outstanding--
		h := getHeader(e.localMR.Bytes(ctx.localOff, HeaderSize))
		if ctx.depleted && e.markDone(ctx.src) {
			e.scq.Kick()
			e.dev.KickMemWaiters()
		}
		if h.payload == 0 {
			// Marker buffer: release it right away.
			e.releaseParts(ctx.src, ctx.remoteOff, ctx.localOff)
			continue
		}
		off := ctx.localOff
		e.ready.push(&Data{
			Src:     int(h.src),
			Payload: e.localMR.Bytes(off+HeaderSize, h.payload),
			Remote:  uint64(ctx.remoteOff),
			slot:    off,
		})
	}
	return nil
}

// releaseParts performs the two halves of RELEASE without a Data wrapper.
// It is also used for zero-payload markers. The FreeArr write is deferred
// to the next GetData/Release call's Proc, so it must be invoked from Proc
// context; we keep a small queue of pending frees to flush.
func (e *rdRCRecv) releaseParts(src, remoteOff, localOff int) {
	e.pendingFrees = append(e.pendingFrees, pendingFree{src: src, remoteOff: remoteOff})
	e.localArr[src] = append(e.localArr[src], localOff)
}

type pendingFree struct {
	src       int
	remoteOff int
}

// flushFrees writes queued FreeArr notifications. A dead sender will never
// reuse its buffer, so frees toward it are dropped.
func (e *rdRCRecv) flushFrees(p *sim.Proc) error {
	for len(e.pendingFrees) > 0 {
		f := e.pendingFrees[0]
		e.pendingFrees = e.pendingFrees[1:]
		if e.failed[f.src] {
			continue
		}
		err := e.postDrain(p, f.src, e.freeOut.stage(f.src, packSlot(f.remoteOff, 0, false)))
		if err == verbs.ErrPeerDown {
			continue
		}
		if err != nil {
			return err
		}
		traceCredit(e.dev, f.src, int64(f.remoteOff))
	}
	return nil
}

// GetData implements RecvEndpoint (Alg. 3, GETDATA).
func (e *rdRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if d := e.ready.pop(); d != nil {
			return d, nil
		}
		if err := e.flushFrees(p); err != nil {
			return nil, err
		}
		if err := e.issueReads(p); err != nil {
			return nil, err
		}
		if err := e.handleReady(p, false); err != nil {
			return nil, err
		}
		// Handling may have queued FreeArr notifications (marker buffers);
		// flush them before blocking or returning so senders never starve.
		if err := e.flushFrees(p); err != nil {
			return nil, err
		}
		if !e.ready.empty() {
			continue
		}
		if e.allDone() && e.outstanding == 0 {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		var woke bool
		if e.outstanding > 0 {
			woke = e.scq.WaitNonEmpty(p, w.step())
		} else {
			woke = e.dev.WaitMemChange(p, w.step())
		}
		if !w.after(woke) {
			return nil, fmt.Errorf("%w: RD GetData on node %d (%d/%d depleted, %d reads out)",
				ErrStalled, e.dev.Node(), e.nDone, e.n, e.outstanding)
		}
	}
}

// Release implements RecvEndpoint (Alg. 3, RELEASE).
func (e *rdRCRecv) Release(p *sim.Proc, d *Data) error {
	e.releaseParts(d.Src, int(d.Remote), d.slot)
	return e.flushFrees(p)
}

func newRDRCSend(dev *verbs.Device, cfg Config, n, tpe int) *rdRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &rdRCSend{
		endpoint: newEndpoint(dev, cfg, n, "rd-send", 4*pool*n+64, 16),
		sendPool: newSendPool(dev, "rd-free", pool, cfg.BufSize, 0),
		freeArr:  newWordRing(dev, n, pool+1),
		validOut: newWordRing(dev, n, pool+1),
	}
	e.wake, e.wakeMem = []*verbs.CQ{e.scq}, dev
	e.createRCQPs(e.scq, 2*pool+16, 4)
	return e
}

// newRDRCRecv sizes its rings like the senders' (ringCap), so neither side's
// producer can overrun unconsumed entries.
func newRDRCRecv(dev *verbs.Device, cfg Config, n, tpe, ringCap int) *rdRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &rdRCRecv{
		endpoint: newEndpoint(dev, cfg, n, "rd-recv", 4*n*perSrc+64, 16),
		validArr: newWordRing(dev, n, ringCap),
		localMR:  dev.AllocRingNoCost(n*perSrc, cfg.BufSize),
		freeOut:  newWordRing(dev, n, ringCap),
		dataWin:  make([]remoteWin, n),
		localArr: make([][]int, n),
		readCtx:  make(map[uint64]rdReadCtx),
	}
	e.wake, e.wakeMem = []*verbs.CQ{e.scq}, dev
	for src := 0; src < n; src++ {
		for i := 0; i < perSrc; i++ {
			e.localArr[src] = append(e.localArr[src], (src*perSrc+i)*cfg.BufSize)
		}
	}
	e.createRCQPs(e.scq, 2*perSrc+16, 4)
	return e
}
