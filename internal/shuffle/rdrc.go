package shuffle

import (
	"fmt"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// Slot encoding for the FreeArr/ValidArr circular queues (Alg. 3). One
// 8-byte word per slot: | offset:32 | length:24 | flags:7 | valid:1 |.
// A zero word is an empty slot; the receiver (of the notification) zeroes a
// slot after consuming it, and queue capacity >= the sender's buffer pool
// guarantees a producer never overruns unconsumed entries.
const (
	slotValid    = 1 << 0
	slotDepleted = 1 << 1
)

func packSlot(off, length int, depleted bool) uint64 {
	v := uint64(off)<<32 | uint64(length)<<8 | slotValid
	if depleted {
		v |= slotDepleted
	}
	return v
}

func unpackSlot(v uint64) (off, length int, depleted bool) {
	return int(v >> 32), int(v>>8) & 0xFFFFFF, v&slotDepleted != 0
}

// rdRCSend implements the SEND endpoint with one-sided RDMA Read over the
// Reliable Connection service (§4.4.3, Fig. 7a). The sender stays passive
// on the data path: SEND only announces full buffers by writing their
// addresses into each receiver's ValidArr with RDMA Write, and GETFREE
// harvests buffer addresses that receivers returned through the local
// FreeArr. The data itself moves when receivers issue RDMA Reads.
type rdRCSend struct {
	dev *verbs.Device
	cfg Config
	n   int

	qps []*verbs.QP
	wcq *verbs.CQ // completions of outgoing ValidArr writes

	gate epGate

	mr       *verbs.MR // data buffer pool; receivers read from it directly
	poolBufs int
	queueCap int

	freeArrMR *verbs.MR // n circular queues written by receivers
	cons      []int

	stageMR  *verbs.MR   // per destination 8-byte staging for slot writes
	validWin []remoteWin // per destination: my ValidArr queue at that node
	prod     []int

	free    *sim.Queue[int]
	pending map[int]int

	// failed marks destinations declared dead by the connection manager;
	// qpDest attributes completions to their connection.
	failed []bool
	qpDest map[uint32]int
}

func (e *rdRCSend) buf(off int) *Buf {
	return &Buf{Data: e.mr.Bytes(off+HeaderSize, e.cfg.BufSize-HeaderSize), off: off}
}

// DrainPeer and ClosePeer implement PeerDrainer: a dead receiver never
// returns buffers through FreeArr, so blocked GETFREE/FINISH calls wake and
// fail with ErrPeerFailed.
func (e *rdRCSend) DrainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *rdRCSend) ClosePeer(peer int) {
	e.wcq.Kick()
	e.dev.KickMemWaiters()
}

// ReopenPeer implements PeerResumer.
func (e *rdRCSend) ReopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

func (e *rdRCSend) anyFailed() (int, bool) {
	for d, f := range e.failed {
		if f {
			return d, true
		}
	}
	return 0, false
}

// harvest scans every FreeArr queue for buffers returned by receivers.
func (e *rdRCSend) harvest() {
	for src := 0; src < e.n; src++ {
		for {
			idx := src*e.queueCap + e.cons[src]%e.queueCap
			v := verbs.ReadUint64(e.freeArrMR.Bytes(8*idx, 8))
			if v&slotValid == 0 {
				break
			}
			verbs.PutUint64(e.freeArrMR.Bytes(8*idx, 8), 0)
			e.cons[src]++
			off, _, _ := unpackSlot(v)
			e.pending[off]--
			if e.pending[off] == 0 {
				delete(e.pending, off)
				e.free.Put(off)
			}
		}
	}
}

func (e *rdRCSend) reapWrites(p *sim.Proc) error {
	var es [16]verbs.CQE
	for e.wcq.Len() > 0 {
		n := e.gate.poll(p, e.wcq, es[:])
		for _, c := range es[:n] {
			if c.Status != verbs.WCSuccess {
				if d, ok := e.qpDest[c.QPN]; ok && (c.Status == verbs.WCPeerDown || e.failed[d]) {
					return peerFailedErr(d)
				}
				return wcErr(c)
			}
		}
	}
	return nil
}

// GetFree implements SendEndpoint (Alg. 3, GETFREE): it returns a buffer
// only once every destination in its transmission group has marked it free.
func (e *rdRCSend) GetFree(p *sim.Proc) (*Buf, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if off, ok := e.free.TryGet(); ok {
			return e.buf(off), nil
		}
		e.harvest()
		if err := e.reapWrites(p); err != nil {
			return nil, err
		}
		if off, ok := e.free.TryGet(); ok {
			return e.buf(off), nil
		}
		if d, ok := e.anyFailed(); ok {
			return nil, peerFailedErr(d)
		}
		if !e.dev.WaitMemChange(p, w.step()) {
			if !w.idle() {
				return nil, fmt.Errorf("%w: RD GetFree on node %d (%d buffers outstanding)",
					ErrStalled, e.dev.Node(), len(e.pending))
			}
			continue
		}
		w.progress()
	}
}

// writeSlot announces (off, length) to dest's ValidArr via RDMA Write. The
// queue index is reserved before posting: PostSend can yield to another
// thread sharing this endpoint, and two writers must never target one slot.
func (e *rdRCSend) writeSlot(p *sim.Proc, dest int, word uint64) error {
	if e.failed[dest] {
		return peerFailedErr(dest)
	}
	idx := e.prod[dest]
	e.prod[dest]++
	// The staging slot mirrors the remote slot index: concurrent writers to
	// the same destination each stage in their own word, because PostSend
	// yields before snapshotting the payload.
	stage := 8 * (dest*e.queueCap + idx%e.queueCap)
	verbs.PutUint64(e.stageMR.Bytes(stage, 8), word)
	for {
		err := e.gate.post(p, e.qps[dest], verbs.SendWR{
			Op: verbs.OpWrite, MR: e.stageMR, Offset: stage, Len: 8, Inline: true,
			RemoteKey:    e.validWin[dest].rkey,
			RemoteOffset: e.validWin[dest].base + 8*(idx%e.queueCap),
		})
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

func (e *rdRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	putHeader(e.mr.Bytes(b.off, HeaderSize), header{payload: b.Len, src: uint16(e.dev.Node())})
	e.pending[b.off] = len(dest)
	word := packSlot(b.off, HeaderSize+b.Len, depleted)
	for _, d := range dest {
		if err := e.writeSlot(p, d, word); err != nil {
			return err
		}
	}
	return e.reapWrites(p)
}

// Send implements SendEndpoint.
func (e *rdRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint: one Depleted buffer is announced to every
// node, then the endpoint waits for receivers to return every outstanding
// buffer, since buffers may not be unregistered while a remote Read could
// still target them.
func (e *rdRCSend) Finish(p *sim.Proc) error {
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
		e.harvest()
		if err := e.reapWrites(p); err != nil {
			return err
		}
		if len(e.pending) == 0 {
			break
		}
		if d, ok := e.anyFailed(); ok {
			return peerFailedErr(d)
		}
		if !e.dev.WaitMemChange(p, w.step()) {
			if !w.idle() {
				return fmt.Errorf("%w: RD Finish flush (%d outstanding)", ErrStalled, len(e.pending))
			}
			continue
		}
		w.progress()
	}
	return nil
}

// rdRCRecv implements the RECEIVE endpoint over one-sided RDMA Read
// (§4.4.3, Fig. 7b). GETDATA first turns ValidArr announcements into RDMA
// Read requests while local destination buffers are available, then waits
// for read completions. RELEASE returns the remote buffer's address through
// the sender's FreeArr and recycles the local buffer onto LocalArr.
type rdRCRecv struct {
	dev *verbs.Device
	cfg Config
	n   int

	qps []*verbs.QP
	ocq *verbs.CQ // read + FreeArr-write completions

	gate epGate

	validArrMR *verbs.MR // n circular queues written by senders
	queueCap   int
	cons       []int

	localMR  *verbs.MR // local destination buffers for incoming reads
	localArr [][]int   // per source: stack of free local buffer offsets

	stageMR *verbs.MR   // per source 8-byte staging for FreeArr writes
	freeWin []remoteWin // per source: that sender's FreeArr queue
	prod    []int

	dataWin []remoteWin // per source: that sender's data pool MR

	nextWRID     uint64
	readCtx      map[uint64]rdReadCtx
	outstanding  int
	ready        dataQueue
	pendingFrees []pendingFree
	depleted     int
	depletedBy   []bool

	// failed marks sources declared dead by the connection manager; qpSrc
	// attributes completions to their connection.
	failed []bool
	qpSrc  map[uint32]int
}

type rdReadCtx struct {
	src       int
	remoteOff int
	localOff  int
	depleted  bool
}

// DrainPeer and ClosePeer implement PeerDrainer: GETDATA stops issuing
// reads against the dead sender's pool and fails once its stream is known
// to be incomplete instead of waiting for ValidArr entries forever.
func (e *rdRCRecv) DrainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *rdRCRecv) ClosePeer(peer int) {
	e.ocq.Kick()
	e.dev.KickMemWaiters()
}

// ReopenPeer implements PeerResumer.
func (e *rdRCRecv) ReopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

// Depleted implements ProgressReporter.
func (e *rdRCRecv) Depleted(src int) bool {
	return src >= 0 && src < e.n && e.depletedBy[src]
}

// missingFailed returns a failed source whose stream is still incomplete.
func (e *rdRCRecv) missingFailed() (int, bool) {
	for s, f := range e.failed {
		if f && !e.depletedBy[s] {
			return s, true
		}
	}
	return 0, false
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
			idx := src*e.queueCap + e.cons[src]%e.queueCap
			v := verbs.ReadUint64(e.validArrMR.Bytes(8*idx, 8))
			if v&slotValid == 0 {
				break
			}
			verbs.PutUint64(e.validArrMR.Bytes(8*idx, 8), 0)
			e.cons[src]++
			off, length, dep := unpackSlot(v)
			last := len(e.localArr[src]) - 1
			local := e.localArr[src][last]
			e.localArr[src] = e.localArr[src][:last]
			e.nextWRID++
			wrid := e.nextWRID
			e.readCtx[wrid] = rdReadCtx{src: src, remoteOff: off, localOff: local, depleted: dep}
			for {
				err := e.gate.post(p, e.qps[src], verbs.SendWR{
					ID: wrid, Op: verbs.OpRead,
					MR: e.localMR, Offset: local, Len: length,
					RemoteKey: e.dataWin[src].rkey, RemoteOffset: e.dataWin[src].base + off,
				})
				if err == nil {
					break
				}
				if err == verbs.ErrPeerDown {
					return peerFailedErr(src)
				}
				if err != verbs.ErrSQFull {
					return err
				}
				if err := e.drain(p, true); err != nil {
					return err
				}
			}
			e.outstanding++
		}
	}
	return nil
}

// drain processes completions, queueing finished reads as ready Data. With
// block set it waits for at least one completion first (used only when
// operations are known to be outstanding, so the wait always terminates).
func (e *rdRCRecv) drain(p *sim.Proc, block bool) error {
	var es [16]verbs.CQE
	for {
		if e.ocq.Len() == 0 {
			if !block {
				return nil
			}
			e.ocq.WaitNonEmpty(p, 0)
		}
		n := e.gate.poll(p, e.ocq, es[:])
		if err := e.handle(es[:n]); err != nil {
			return err
		}
		block = false
	}
}

func (e *rdRCRecv) handle(es []verbs.CQE) error {
	for _, c := range es {
		if c.Status != verbs.WCSuccess {
			if s, ok := e.qpSrc[c.QPN]; ok && (c.Status == verbs.WCPeerDown || e.failed[s]) {
				return peerFailedErr(s)
			}
			return wcErr(c)
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
		if ctx.depleted {
			e.depleted++
			e.depletedBy[ctx.src] = true
			if e.depleted >= e.n {
				e.ocq.Kick()
				e.dev.KickMemWaiters()
			}
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

// flushFrees writes queued FreeArr notifications.
func (e *rdRCRecv) flushFrees(p *sim.Proc) error {
	for len(e.pendingFrees) > 0 {
		f := e.pendingFrees[0]
		e.pendingFrees = e.pendingFrees[1:]
		if err := e.writeFree(p, f.src, f.remoteOff); err != nil {
			return err
		}
	}
	return nil
}

func (e *rdRCRecv) writeFree(p *sim.Proc, src, remoteOff int) error {
	if e.failed[src] {
		return nil // the dead sender will never reuse the buffer anyway
	}
	// Reserve the slot index and its staging mirror before posting; see
	// rdRCSend.writeSlot for why.
	idx := e.prod[src]
	e.prod[src]++
	stage := 8 * (src*e.queueCap + idx%e.queueCap)
	verbs.PutUint64(e.stageMR.Bytes(stage, 8), packSlot(remoteOff, 0, false))
	for {
		err := e.gate.post(p, e.qps[src], verbs.SendWR{
			Op: verbs.OpWrite, MR: e.stageMR, Offset: stage, Len: 8, Inline: true,
			RemoteKey:    e.freeWin[src].rkey,
			RemoteOffset: e.freeWin[src].base + 8*(idx%e.queueCap),
		})
		if err == nil {
			traceCredit(e.dev, src, int64(remoteOff))
			return nil
		}
		if err == verbs.ErrPeerDown {
			return nil
		}
		if err != verbs.ErrSQFull {
			return err
		}
		if err := e.drain(p, true); err != nil {
			return err
		}
	}
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
		if err := e.drain(p, false); err != nil {
			return nil, err
		}
		// Drain may have queued FreeArr notifications (marker buffers);
		// flush them before blocking or returning so senders never starve.
		if err := e.flushFrees(p); err != nil {
			return nil, err
		}
		if !e.ready.empty() {
			continue
		}
		if e.depleted >= e.n && e.outstanding == 0 {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		ok := false
		if e.outstanding > 0 {
			ok = e.ocq.WaitNonEmpty(p, w.step())
		} else {
			ok = e.dev.WaitMemChange(p, w.step())
		}
		if !ok {
			if !w.idle() {
				return nil, fmt.Errorf("%w: RD GetData on node %d (%d/%d depleted, %d reads out)",
					ErrStalled, e.dev.Node(), e.depleted, e.n, e.outstanding)
			}
		} else {
			w.progress()
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
		dev: dev, cfg: cfg, n: n,
		gate:     newEPGate(dev.Sim(), fmt.Sprintf("rd-send@%d", dev.Node())),
		poolBufs: pool,
		queueCap: pool + 1,
		cons:     make([]int, n),
		prod:     make([]int, n),
		validWin: make([]remoteWin, n),
		free:     sim.NewQueue[int](dev.Sim(), fmt.Sprintf("rd-free@%d", dev.Node())),
		pending:  make(map[int]int),
		failed:   make([]bool, n),
		qpDest:   make(map[uint32]int),
	}
	e.wcq = dev.CreateCQ(4*pool*n + 64)
	e.mr = dev.AllocRingNoCost(pool, cfg.BufSize)
	e.freeArrMR = dev.RegisterMRNoCost(make([]byte, 8*n*e.queueCap))
	e.stageMR = dev.RegisterMRNoCost(make([]byte, 8*n*e.queueCap))
	for i := 0; i < pool; i++ {
		e.free.Put(i * cfg.BufSize)
	}
	e.qps = make([]*verbs.QP, n)
	for d := 0; d < n; d++ {
		e.qps[d] = dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: e.wcq, RecvCQ: e.wcq,
			MaxSend: 2*pool + 16, MaxRecv: 4,
		})
		e.qpDest[e.qps[d].QPN()] = d
	}
	return e
}

func newRDRCRecv(dev *verbs.Device, cfg Config, n, tpe, senderPool int) *rdRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &rdRCRecv{
		dev: dev, cfg: cfg, n: n,
		gate:       newEPGate(dev.Sim(), fmt.Sprintf("rd-recv@%d", dev.Node())),
		queueCap:   senderPool + 1,
		cons:       make([]int, n),
		prod:       make([]int, n),
		freeWin:    make([]remoteWin, n),
		dataWin:    make([]remoteWin, n),
		localArr:   make([][]int, n),
		readCtx:    make(map[uint64]rdReadCtx),
		depletedBy: make([]bool, n),
		failed:     make([]bool, n),
		qpSrc:      make(map[uint32]int),
	}
	e.ocq = dev.CreateCQ(4*n*perSrc + 64)
	e.validArrMR = dev.RegisterMRNoCost(make([]byte, 8*n*e.queueCap))
	e.localMR = dev.AllocRingNoCost(n*perSrc, cfg.BufSize)
	e.stageMR = dev.RegisterMRNoCost(make([]byte, 8*n*e.queueCap))
	for src := 0; src < n; src++ {
		for i := 0; i < perSrc; i++ {
			e.localArr[src] = append(e.localArr[src], (src*perSrc+i)*cfg.BufSize)
		}
	}
	e.qps = make([]*verbs.QP, n)
	for s := 0; s < n; s++ {
		e.qps[s] = dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: e.ocq, RecvCQ: e.ocq,
			MaxSend: 2*perSrc + 16, MaxRecv: 4,
		})
		e.qpSrc[e.qps[s].QPN()] = s
	}
	return e
}
