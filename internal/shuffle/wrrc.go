package shuffle

import (
	"fmt"

	"rshuffle/internal/fabric"
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
	dev *verbs.Device
	cfg Config
	n   int

	qps []*verbs.QP
	wcq *verbs.CQ // data + announcement write completions

	gate epGate

	mr       *verbs.MR // local transmission buffers
	poolBufs int
	queueCap int
	free     *sim.Queue[int]
	pending  map[int]int // buffer offset -> outstanding data writes

	// slotArrMR holds n circular queues of remote-slot grants, written by
	// receivers; slotWin[d] is the receiver's data-slot region.
	slotArrMR *verbs.MR
	cons      []int
	slotWin   []remoteWin // receiver's slot MR (data destination)

	// validWin[d] is the receiver's ValidArr queue for this sender.
	validWin []remoteWin
	prod     []int
	stageMR  *verbs.MR

	// failed marks destinations declared dead by the connection manager;
	// qpDest attributes completions to their connection.
	failed []bool
	qpDest map[uint32]int
}

func (e *wrRCSend) buf(off int) *Buf {
	return &Buf{Data: e.mr.Bytes(off+HeaderSize, e.cfg.BufSize-HeaderSize), off: off}
}

// DrainPeer and ClosePeer implement PeerDrainer: a dead receiver never
// grants slots again, so blocked SEND calls wake and fail with
// ErrPeerFailed instead of running down the stall timeout.
func (e *wrRCSend) DrainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *wrRCSend) ClosePeer(peer int) {
	e.wcq.Kick()
	e.dev.KickMemWaiters()
}

// ReopenPeer implements PeerResumer.
func (e *wrRCSend) ReopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

func (e *wrRCSend) anyFailed() (int, bool) {
	for d, f := range e.failed {
		if f {
			return d, true
		}
	}
	return 0, false
}

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
		idx := dest*e.queueCap + e.cons[dest]%e.queueCap
		v := verbs.ReadUint64(e.slotArrMR.Bytes(8*idx, 8))
		if v&slotValid != 0 {
			verbs.PutUint64(e.slotArrMR.Bytes(8*idx, 8), 0)
			e.cons[dest]++
			off, _, _ := unpackSlot(v)
			return off, nil
		}
		if err := e.reapWrites(p); err != nil {
			return 0, err
		}
		if !e.dev.WaitMemChange(p, w.step()) {
			if !w.idle() {
				return 0, fmt.Errorf("%w: WR waiting for slot grant from node %d", ErrStalled, dest)
			}
			continue
		}
		w.progress()
	}
}

func (e *wrRCSend) reapWrites(p *sim.Proc) error {
	var es [16]verbs.CQE
	var err error
	for e.wcq.Len() > 0 {
		n := e.gate.poll(p, e.wcq, es[:])
		for _, c := range es[:n] {
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
			if c.WRID == 0 {
				continue // announcement write
			}
			off := int(c.WRID - 1)
			e.pending[off]--
			if e.pending[off] == 0 {
				delete(e.pending, off)
				e.free.Put(off)
			}
		}
	}
	return err
}

// GetFree implements SendEndpoint: a buffer is reusable once its data
// writes complete locally — no remote notification needed.
func (e *wrRCSend) GetFree(p *sim.Proc) (*Buf, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if off, ok := e.free.TryGet(); ok {
			return e.buf(off), nil
		}
		if err := e.reapWrites(p); err != nil {
			return nil, err
		}
		if off, ok := e.free.TryGet(); ok {
			return e.buf(off), nil
		}
		if d, ok := e.anyFailed(); ok {
			return nil, peerFailedErr(d)
		}
		if !e.wcq.WaitNonEmpty(p, w.step()) {
			if !w.idle() {
				return nil, fmt.Errorf("%w: WR GetFree on node %d", ErrStalled, e.dev.Node())
			}
			continue
		}
		w.progress()
	}
}

func (e *wrRCSend) postWrite(p *sim.Proc, dest int, wr verbs.SendWR) error {
	for {
		err := e.gate.post(p, e.qps[dest], wr)
		if err == nil {
			return nil
		}
		if err == verbs.ErrPeerDown {
			return peerFailedErr(dest)
		}
		if err != verbs.ErrSQFull {
			return err
		}
		e.wcq.WaitNonEmpty(p, 0)
		if err := e.reapWrites(p); err != nil {
			return err
		}
	}
}

func (e *wrRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	putHeader(e.mr.Bytes(b.off, HeaderSize), header{payload: b.Len, src: uint16(e.dev.Node())})
	e.pending[b.off] = len(dest)
	length := HeaderSize + b.Len
	for _, d := range dest {
		slot, err := e.popSlot(p, d)
		if err != nil {
			return err
		}
		// Data write into the granted remote slot.
		if err := e.postWrite(p, d, verbs.SendWR{
			ID: uint64(b.off) + 1, Op: verbs.OpWrite,
			MR: e.mr, Offset: b.off, Len: length,
			RemoteKey: e.slotWin[d].rkey, RemoteOffset: e.slotWin[d].base + slot,
		}); err != nil {
			return err
		}
		// Announcement write, ordered behind the data on the same QP.
		idx := e.prod[d]
		e.prod[d]++
		stage := 8 * (d*e.queueCap + idx%e.queueCap)
		verbs.PutUint64(e.stageMR.Bytes(stage, 8), packSlot(slot, length, depleted))
		if err := e.postWrite(p, d, verbs.SendWR{
			ID: 0, Op: verbs.OpWrite,
			MR: e.stageMR, Offset: stage, Len: 8, Inline: true,
			RemoteKey:    e.validWin[d].rkey,
			RemoteOffset: e.validWin[d].base + 8*(idx%e.queueCap),
		}); err != nil {
			return err
		}
	}
	return e.reapWrites(p)
}

// Send implements SendEndpoint.
func (e *wrRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint.
func (e *wrRCSend) Finish(p *sim.Proc) error {
	b, err := e.GetFree(p)
	if err != nil {
		return err
	}
	all := make([]int, e.n)
	for i := range all {
		all[i] = i
	}
	b.Len = 0
	if err := e.send(p, b, all, true); err != nil {
		return err
	}
	w := newWaiter(e.cfg.StallTimeout)
	for len(e.pending) > 0 {
		if err := e.reapWrites(p); err != nil {
			return err
		}
		if len(e.pending) == 0 {
			break
		}
		if d, ok := e.anyFailed(); ok {
			return peerFailedErr(d)
		}
		if !e.wcq.WaitNonEmpty(p, w.step()) {
			if !w.idle() {
				return fmt.Errorf("%w: WR Finish flush (%d outstanding)", ErrStalled, len(e.pending))
			}
			continue
		}
		w.progress()
	}
	return nil
}

// wrRCRecv implements the RECEIVE endpoint over one-sided RDMA Write: it
// owns the data slots, polls its ValidArr queues for announcements, and
// re-grants consumed slots.
type wrRCRecv struct {
	dev *verbs.Device
	cfg Config
	n   int

	qps []*verbs.QP
	gcq *verbs.CQ // grant-write completions

	gate epGate

	slotMR *verbs.MR // data slots, perSrc per source
	perSrc int

	validArrMR *verbs.MR
	queueCap   int
	cons       []int

	grantWin []remoteWin // each sender's SlotArr region for me
	prod     []int
	stageMR  *verbs.MR

	depleted   int
	depletedBy []bool

	// failed marks sources declared dead by the connection manager; qpSrc
	// attributes completions to their connection.
	failed []bool
	qpSrc  map[uint32]int
}

// DrainPeer and ClosePeer implement PeerDrainer: GETDATA fails once a dead
// sender's stream is known to be incomplete instead of polling ValidArr
// entries that will never be written.
func (e *wrRCRecv) DrainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *wrRCRecv) ClosePeer(peer int) {
	e.gcq.Kick()
	e.dev.KickMemWaiters()
}

// ReopenPeer implements PeerResumer.
func (e *wrRCRecv) ReopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

// Depleted implements ProgressReporter.
func (e *wrRCRecv) Depleted(src int) bool {
	return src >= 0 && src < e.n && e.depletedBy[src]
}

// missingFailed returns a failed source whose stream is still incomplete.
func (e *wrRCRecv) missingFailed() (int, bool) {
	for s, f := range e.failed {
		if f && !e.depletedBy[s] {
			return s, true
		}
	}
	return 0, false
}

// grant hands slot (an offset within slotMR) to sender src.
func (e *wrRCRecv) grant(p *sim.Proc, src, slot int) error {
	if e.failed[src] {
		return nil // the dead sender will never consume the grant
	}
	idx := e.prod[src]
	e.prod[src]++
	stage := 8 * (src*e.queueCap + idx%e.queueCap)
	verbs.PutUint64(e.stageMR.Bytes(stage, 8), packSlot(slot, 0, false))
	for {
		err := e.gate.post(p, e.qps[src], verbs.SendWR{
			Op: verbs.OpWrite, MR: e.stageMR, Offset: stage, Len: 8, Inline: true,
			RemoteKey:    e.grantWin[src].rkey,
			RemoteOffset: e.grantWin[src].base + 8*(idx%e.queueCap),
		})
		if err == nil {
			traceCredit(e.dev, src, int64(slot))
			break
		}
		if err == verbs.ErrPeerDown {
			return nil
		}
		if err != verbs.ErrSQFull {
			return err
		}
		e.gcq.WaitNonEmpty(p, 0)
		if err := e.drainGrants(p); err != nil {
			return err
		}
	}
	return e.drainGrants(p)
}

// drainGrants reaps completed grant writes, surfacing any that failed.
func (e *wrRCRecv) drainGrants(p *sim.Proc) error {
	var es [8]verbs.CQE
	for e.gcq.Len() > 0 {
		n := e.gate.poll(p, e.gcq, es[:])
		for _, c := range es[:n] {
			if c.Status != verbs.WCSuccess {
				if s, ok := e.qpSrc[c.QPN]; ok && (c.Status == verbs.WCPeerDown || e.failed[s]) {
					// A grant toward a dead sender flushed; nothing is owed.
					continue
				}
				return wcErr(c)
			}
		}
	}
	return nil
}

// GetData implements RecvEndpoint: announcements arrive purely through
// memory, so the wait path watches for remote writes.
func (e *wrRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		for src := 0; src < e.n; src++ {
			idx := src*e.queueCap + e.cons[src]%e.queueCap
			v := verbs.ReadUint64(e.validArrMR.Bytes(8*idx, 8))
			if v&slotValid == 0 {
				continue
			}
			verbs.PutUint64(e.validArrMR.Bytes(8*idx, 8), 0)
			e.cons[src]++
			slot, _, dep := unpackSlot(v)
			h := getHeader(e.slotMR.Bytes(slot, HeaderSize))
			if dep {
				e.depleted++
				e.depletedBy[src] = true
				if e.depleted >= e.n {
					e.dev.KickMemWaiters()
				}
			}
			if h.payload == 0 {
				// Marker: re-grant immediately.
				if err := e.grant(p, src, slot); err != nil {
					return nil, err
				}
				continue
			}
			return &Data{
				Src:     int(h.src),
				Payload: e.slotMR.Bytes(slot+HeaderSize, h.payload),
				slot:    slot,
			}, nil
		}
		if e.depleted >= e.n {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		if !e.dev.WaitMemChange(p, w.step()) {
			if !w.idle() {
				return nil, fmt.Errorf("%w: WR GetData on node %d (%d/%d depleted)",
					ErrStalled, e.dev.Node(), e.depleted, e.n)
			}
		} else {
			w.progress()
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
		dev: dev, cfg: cfg, n: n,
		gate:     newEPGate(dev.Sim(), fmt.Sprintf("wr-send@%d", dev.Node())),
		poolBufs: pool,
		queueCap: grantCap,
		free:     sim.NewQueue[int](dev.Sim(), fmt.Sprintf("wr-free@%d", dev.Node())),
		pending:  make(map[int]int),
		cons:     make([]int, n),
		prod:     make([]int, n),
		slotWin:  make([]remoteWin, n),
		validWin: make([]remoteWin, n),
		failed:   make([]bool, n),
		qpDest:   make(map[uint32]int),
	}
	e.wcq = dev.CreateCQ(4*pool*n + 64)
	e.mr = dev.AllocRingNoCost(pool, cfg.BufSize)
	e.slotArrMR = dev.RegisterMRNoCost(make([]byte, 8*n*grantCap))
	e.stageMR = dev.RegisterMRNoCost(make([]byte, 8*n*grantCap))
	for i := 0; i < pool; i++ {
		e.free.Put(i * cfg.BufSize)
	}
	e.qps = make([]*verbs.QP, n)
	for d := 0; d < n; d++ {
		e.qps[d] = dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: e.wcq, RecvCQ: e.wcq,
			MaxSend: 4*pool + 16, MaxRecv: 4,
		})
		e.qpDest[e.qps[d].QPN()] = d
	}
	return e
}

func newWRRCRecv(dev *verbs.Device, cfg Config, n, tpe int) *wrRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &wrRCRecv{
		dev: dev, cfg: cfg, n: n, perSrc: perSrc,
		gate:       newEPGate(dev.Sim(), fmt.Sprintf("wr-recv@%d", dev.Node())),
		queueCap:   perSrc + 1,
		cons:       make([]int, n),
		prod:       make([]int, n),
		grantWin:   make([]remoteWin, n),
		depletedBy: make([]bool, n),
		failed:     make([]bool, n),
		qpSrc:      make(map[uint32]int),
	}
	e.gcq = dev.CreateCQ(4*n*perSrc + 64)
	e.slotMR = dev.AllocRingNoCost(n*perSrc, cfg.BufSize)
	e.validArrMR = dev.RegisterMRNoCost(make([]byte, 8*n*e.queueCap))
	e.stageMR = dev.RegisterMRNoCost(make([]byte, 8*n*e.queueCap))
	e.qps = make([]*verbs.QP, n)
	for s := 0; s < n; s++ {
		e.qps[s] = dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: e.gcq, RecvCQ: e.gcq,
			MaxSend: 2*perSrc + 16, MaxRecv: 4,
		})
		e.qpSrc[e.qps[s].QPN()] = s
	}
	return e
}
