// Package mpi implements an MVAPICH-like message-passing library over the
// simulated verbs layer, used as the paper's primary comparison baseline.
//
// The model captures the properties that make MPI slower than the bespoke
// RDMA endpoints:
//
//   - an eager protocol for small messages with an extra library-internal
//     copy at both ends;
//   - a rendezvous protocol (RTS/CTS handshake) for large messages, where
//     the CTS is only generated while some receiver thread is inside an MPI
//     call — so communication fails to overlap with computation;
//   - a single library instance per node whose progress engine and posting
//     paths serialize on one lock (MPI_THREAD_MULTIPLE);
//   - per-message library overhead (matching, request bookkeeping).
//
// The library implements shuffle.SendEndpoint, shuffle.RecvEndpoint and
// shuffle.Provider, so the paper's SHUFFLE/RECEIVE operators run over MPI
// unchanged, exactly as the paper's MPI endpoint does.
package mpi

import (
	"fmt"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// The library's fixed sizes and bounds. The per-message overhead is the
// profile's MPIPerMessage.
const (
	// eagerLimit is the largest payload sent eagerly (copied through
	// pre-posted bounce buffers); larger messages use rendezvous.
	eagerLimit = 16 << 10
	// bufSize is the application message buffer size (matches the shuffle
	// operator's transmission buffer size).
	bufSize = 64 << 10
	// eagerSlots is the number of pre-posted eager bounce buffers per peer.
	eagerSlots = 16
	// rdvSlots is the number of rendezvous data slots per peer.
	rdvSlots = 16
	// stallTimeout bounds blocking calls.
	stallTimeout = 5 * time.Second
)

const (
	hdrSize = 24

	kindEager = 1
	kindRTS   = 2
	kindCTS   = 3
	kindData  = 4
	kindCred  = 5
)

type msgHeader struct {
	kind    byte
	flags   byte // bit0: depleted marker, bit1: carries total
	src     uint16
	msgID   uint32
	payload uint32
	value   uint64 // totals / credit
}

func putHdr(b []byte, h msgHeader) {
	b[0] = h.kind
	b[1] = h.flags
	verbs.PutUint32(b[4:], h.msgID)
	verbs.PutUint32(b[8:], h.payload)
	verbs.PutUint32(b[12:], uint32(h.src))
	verbs.PutUint64(b[16:], h.value)
}

func getHdr(b []byte) msgHeader {
	return msgHeader{
		kind:    b[0],
		flags:   b[1],
		msgID:   verbs.ReadUint32(b[4:]),
		payload: verbs.ReadUint32(b[8:]),
		src:     uint16(verbs.ReadUint32(b[12:])),
		value:   verbs.ReadUint64(b[16:]),
	}
}

const (
	flagDepleted = 1 << 0
	flagTotal    = 1 << 1
)

// World is one MPI job spanning the cluster; it implements
// shuffle.Provider with a single library endpoint per node.
type World struct {
	libs  []*lib
	setup sim.Duration
	reg   sim.Duration
}

// SendEndpoints implements shuffle.Provider.
func (w *World) SendEndpoints(node int) []shuffle.SendEndpoint {
	return []shuffle.SendEndpoint{w.libs[node]}
}

// RecvEndpoints implements shuffle.Provider.
func (w *World) RecvEndpoints(node int) []shuffle.RecvEndpoint {
	return []shuffle.RecvEndpoint{w.libs[node]}
}

// Setup reports connection and registration time, like shuffle.Comm.
func (w *World) Setup() (conn, reg sim.Duration) { return w.setup, w.reg }

// lib is one node's MPI library instance.
type lib struct {
	w    *World
	dev  *verbs.Device
	n    int
	node int
	// overhead is per-message library bookkeeping charged under the lock
	// at both ends (tag matching, request management): the profile's
	// MPIPerMessage.
	overhead sim.Duration

	// mu is the MPI_THREAD_MULTIPLE library lock: every path that touches
	// library state (copies, postings, the progress engine) serializes here.
	mu *sim.Mutex

	ctlQP  []*verbs.QP // per peer: eager/control traffic
	dataQP []*verbs.QP // per peer: rendezvous payloads
	cq     *verbs.CQ   // single progress CQ

	// Eager path.
	eagerRecvMR *verbs.MR // pre-posted bounce buffers (all peers)
	eagerSlot   int
	eagerCredit []uint64 // send side, absolute
	eagerSent   []uint64
	eagerSeen   []uint64 // recv side, releases per peer
	eagerAcked  []uint64

	// Rendezvous path.
	stagingMR *verbs.MR // registered send staging, RdvSlots*n
	stagFree  []int
	rdvRecvMR *verbs.MR // data landing slots
	rdvFree   []int
	nextMsgID uint32
	granted   map[uint32]bool
	pendRTS   []msgHeader // RTS waiting for a free rdv slot

	// Application-side buffers, shared by GetFree and the eager receive
	// path. bufs recycles the Buf records GetFree lends them out in (Send
	// takes them back), datas the Data records GetData hands out (Release
	// takes them back).
	appFree [][]byte
	bufs    []*shuffle.Buf
	datas   shuffle.DataRecs

	// Receive side.
	ready   dataQueue
	recvd   []uint64 // data messages received per source
	total   []uint64
	known   []bool
	knownN  int
	sendCnt []uint64 // data messages sent per destination
}

// Arrived payloads are queued as shuffle.Data; Data.Remote is 0 for eager
// messages (application-pool buffer) and 1+rdvOffset for rendezvous slots.
type dataQueue struct{ items []*shuffle.Data }

func (q *dataQueue) push(d *shuffle.Data) { q.items = append(q.items, d) }
func (q *dataQueue) pop() *shuffle.Data {
	if len(q.items) == 0 {
		return nil
	}
	d := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return d
}

// Build boots the MPI job across all devices. It charges p one node's
// connection setup (two QPs per peer, like mpirun wireup).
func Build(p *sim.Proc, devs []*verbs.Device) *World {
	n := len(devs)
	w := &World{libs: make([]*lib, n)}
	prof := &devs[0].Network().Prof

	for a, dev := range devs {
		l := &lib{
			w: w, dev: dev, n: n, node: a, overhead: prof.MPIPerMessage,
			mu:          dev.Sim().NewMutex(fmt.Sprintf("mpi@%d", a)),
			eagerSlot:   hdrSize + eagerLimit,
			eagerCredit: make([]uint64, n),
			eagerSent:   make([]uint64, n),
			eagerSeen:   make([]uint64, n),
			eagerAcked:  make([]uint64, n),
			granted:     make(map[uint32]bool),
			recvd:       make([]uint64, n),
			total:       make([]uint64, n),
			known:       make([]bool, n),
			sendCnt:     make([]uint64, n),
		}
		ctlSlots := n * (eagerSlots + 4*rdvSlots + 16)
		rdvRing := n * rdvSlots
		l.cq = dev.CreateCQ(4*(ctlSlots+rdvRing) + 256)
		l.eagerRecvMR = dev.AllocRingNoCost(ctlSlots, l.eagerSlot)
		l.stagingMR = dev.AllocRingNoCost(rdvRing, hdrSize+bufSize)
		l.rdvRecvMR = dev.AllocRingNoCost(rdvRing, hdrSize+bufSize)
		for i := 0; i < rdvRing; i++ {
			l.stagFree = append(l.stagFree, i*(hdrSize+bufSize))
			l.rdvFree = append(l.rdvFree, i*(hdrSize+bufSize))
		}
		for i := 0; i < 2*n; i++ {
			l.appFree = append(l.appFree, make([]byte, bufSize))
		}
		l.ctlQP = make([]*verbs.QP, n)
		l.dataQP = make([]*verbs.QP, n)
		for b := 0; b < n; b++ {
			l.ctlQP[b] = dev.CreateQP(verbs.QPConfig{
				Type: fabric.RC, SendCQ: l.cq, RecvCQ: l.cq,
				MaxSend: ctlSlots, MaxRecv: ctlSlots + 8,
			})
			l.dataQP[b] = dev.CreateQP(verbs.QPConfig{
				Type: fabric.RC, SendCQ: l.cq, RecvCQ: l.cq,
				MaxSend: 2*rdvSlots + 8, MaxRecv: 2*rdvSlots + 8,
			})
		}
		w.libs[a] = l
	}
	// Wire QPs and prime receive windows.
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			mustNil(w.libs[a].ctlQP[b].Connect(b, w.libs[b].ctlQP[a].QPN()))
			mustNil(w.libs[a].dataQP[b].Connect(b, w.libs[b].dataQP[a].QPN()))
		}
	}
	for a := 0; a < n; a++ {
		l := w.libs[a]
		slot := 0
		for b := 0; b < n; b++ {
			for i := 0; i < eagerSlots+4*rdvSlots+16; i++ {
				err := l.ctlQP[b].PostRecv(p, verbs.RecvWR{
					ID: uint64(slot), MR: l.eagerRecvMR,
					Offset: slot * l.eagerSlot, Len: l.eagerSlot,
				})
				mustNil(err)
				slot++
			}
			l.eagerCredit[b] = uint64(eagerSlots)
		}
	}
	qpsPerNode := 2 * 2 * n
	w.setup = prof.ConnSetupBase + sim.Duration(qpsPerNode)*prof.ConnSetupPerQP
	w.reg = prof.MemRegBase + sim.Duration(float64(devs[0].RegisteredBytes())*prof.MemRegPerByte)
	p.Sleep(w.setup + w.reg)
	return w
}

func mustNil(err error) {
	if err != nil {
		panic(fmt.Sprintf("mpi: %v", err))
	}
}

// progress runs one step of the library progress engine under the lock,
// dispatching every pending completion. It must be called with mu held.
func (l *lib) progress(p *sim.Proc) {
	var es [16]verbs.CQE
	for l.cq.Len() > 0 {
		n := l.cq.Poll(p, es[:])
		for _, c := range es[:n] {
			l.dispatch(p, c)
		}
	}
}

func (l *lib) dispatch(p *sim.Proc, c verbs.CQE) {
	switch c.Op {
	case verbs.OpSend:
		// A staging or control send finished. Staging sends encode the
		// offset+1 in the WRID so 0 means control.
		if c.WRID > 0 {
			l.stagFree = append(l.stagFree, int(c.WRID-1))
		}
	case verbs.OpRecv:
		l.handleRecv(p, c)
	}
}

func (l *lib) handleRecv(p *sim.Proc, c verbs.CQE) {
	// Data-QP receives carry rendezvous payloads; control-QP receives carry
	// everything else. Distinguish by the slot id space: rdv recv WRIDs are
	// offset by 1<<32.
	if c.WRID >= 1<<32 {
		off := int(c.WRID - 1<<32)
		h := getHdr(l.rdvRecvMR.Bytes(off, hdrSize))
		l.finishIncoming(p, h, l.rdvRecvMR.Bytes(off+hdrSize, int(h.payload)), off)
		return
	}
	slot := int(c.WRID)
	off := slot * l.eagerSlot
	h := getHdr(l.eagerRecvMR.Bytes(off, hdrSize))
	src := int(h.src)
	switch h.kind {
	case kindEager:
		// Copy out to an application buffer (the extra eager copy).
		buf := l.takeAppBuf()
		p.Sleep(sim.Duration(float64(h.payload) * l.prof().MemCopyPerByte))
		copy(buf, l.eagerRecvMR.Bytes(off+hdrSize, int(h.payload)))
		l.repostCtl(p, slot, src)
		l.eagerSeen[src]++
		if l.eagerSeen[src]-l.eagerAcked[src] >= uint64(eagerSlots/2) {
			l.sendCredit(p, src)
		}
		if h.flags&flagTotal != 0 {
			l.markTotal(src, h.value)
		}
		if h.payload == 0 {
			l.putAppBuf(buf)
			return
		}
		l.recvd[src]++
		l.ready.push(l.datas.Get(src, buf[:h.payload], 0))
	case kindRTS:
		l.pendRTS = append(l.pendRTS, h)
		l.repostCtl(p, slot, src)
		l.grantRTS(p)
	case kindCTS:
		l.granted[h.msgID] = true
		l.repostCtl(p, slot, src)
	case kindCred:
		if h.value > l.eagerCredit[src] {
			l.eagerCredit[src] = h.value
		}
		l.repostCtl(p, slot, src)
	default:
		panic(fmt.Sprintf("mpi: unknown control kind %d", h.kind))
	}
}

// finishIncoming queues an arrived rendezvous payload.
func (l *lib) finishIncoming(p *sim.Proc, h msgHeader, payload []byte, rdvOff int) {
	src := int(h.src)
	if h.flags&flagTotal != 0 {
		l.markTotal(src, h.value)
	}
	if h.payload == 0 {
		l.rdvFree = append(l.rdvFree, rdvOff)
		l.grantRTS(p)
		return
	}
	l.recvd[src]++
	l.ready.push(l.datas.Get(src, payload, uint64(rdvOff)+1))
}

func (l *lib) markTotal(src int, v uint64) {
	if !l.known[src] {
		l.known[src] = true
		l.knownN++
	}
	l.total[src] = v
}

// grantRTS matches pending RTS announcements with free rendezvous slots:
// it posts the landing receive and returns a CTS.
func (l *lib) grantRTS(p *sim.Proc) {
	for len(l.pendRTS) > 0 && len(l.rdvFree) > 0 {
		h := l.pendRTS[0]
		l.pendRTS = l.pendRTS[1:]
		off := l.rdvFree[len(l.rdvFree)-1]
		l.rdvFree = l.rdvFree[:len(l.rdvFree)-1]
		src := int(h.src)
		err := l.dataQP[src].PostRecv(p, verbs.RecvWR{
			ID: uint64(off) + 1<<32, MR: l.rdvRecvMR,
			Offset: off, Len: hdrSize + bufSize,
		})
		mustNil(err)
		l.ctlSend(p, src, msgHeader{kind: kindCTS, msgID: h.msgID, src: uint16(l.node)}, nil)
	}
}

// ctlSend transmits a small control/eager message; payload may be nil.
// Must be called with mu held.
func (l *lib) ctlSend(p *sim.Proc, dest int, h msgHeader, payload []byte) {
	off, ok := l.takeStaging()
	if !ok {
		// Recycle staging by draining completions; staging is plentiful, so
		// one progress pass suffices in practice.
		l.progress(p)
		off, ok = l.takeStaging()
		if !ok {
			panic("mpi: out of staging buffers")
		}
	}
	h.payload = uint32(len(payload))
	putHdr(l.stagingMR.Bytes(off, hdrSize), h)
	if len(payload) > 0 {
		p.Sleep(sim.Duration(float64(len(payload)) * l.prof().MemCopyPerByte))
		copy(l.stagingMR.Bytes(off+hdrSize, len(payload)), payload)
	}
	for {
		err := l.ctlQP[dest].PostSend(p, verbs.SendWR{
			ID: uint64(off) + 1, Op: verbs.OpSend,
			MR: l.stagingMR, Offset: off, Len: hdrSize + len(payload),
		})
		if err == nil {
			return
		}
		if err != verbs.ErrSQFull {
			panic(fmt.Sprintf("mpi: ctl send: %v", err))
		}
		l.progress(p)
	}
}

func (l *lib) sendCredit(p *sim.Proc, src int) {
	l.eagerAcked[src] = l.eagerSeen[src]
	grant := l.eagerSeen[src] + uint64(eagerSlots)
	l.ctlSend(p, src, msgHeader{kind: kindCred, src: uint16(l.node), value: grant}, nil)
}

func (l *lib) takeStaging() (int, bool) {
	if len(l.stagFree) == 0 {
		return 0, false
	}
	off := l.stagFree[len(l.stagFree)-1]
	l.stagFree = l.stagFree[:len(l.stagFree)-1]
	return off, true
}

func (l *lib) takeAppBuf() []byte {
	if len(l.appFree) == 0 {
		return make([]byte, bufSize)
	}
	b := l.appFree[len(l.appFree)-1]
	l.appFree = l.appFree[:len(l.appFree)-1]
	return b
}

func (l *lib) putAppBuf(b []byte) { l.appFree = append(l.appFree, b[:cap(b)]) }

func (l *lib) repostCtl(p *sim.Proc, slot, src int) {
	err := l.ctlQP[src].PostRecv(p, verbs.RecvWR{
		ID: uint64(slot), MR: l.eagerRecvMR,
		Offset: slot * l.eagerSlot, Len: l.eagerSlot,
	})
	mustNil(err)
}

func (l *lib) prof() *fabric.Profile { return &l.dev.Network().Prof }

// GetFree implements shuffle.SendEndpoint: MPI applications send from plain
// memory, so this returns an unregistered buffer.
func (l *lib) GetFree(p *sim.Proc) (*shuffle.Buf, error) {
	l.mu.Lock(p)
	var b *shuffle.Buf
	if n := len(l.bufs); n > 0 {
		b = l.bufs[n-1]
		l.bufs = l.bufs[:n-1]
	} else {
		b = new(shuffle.Buf)
	}
	*b = shuffle.Buf{Data: l.takeAppBuf()}
	l.mu.Unlock(p)
	return b, nil
}

// Send implements shuffle.SendEndpoint: MPI_Send to every group member.
func (l *lib) Send(p *sim.Proc, b *shuffle.Buf, dest []int) error {
	err := shuffle.FanOut(l.node, dest, func(d int) error {
		if err := l.sendOne(p, d, b.Data[:b.Len], 0, 0); err != nil {
			return err
		}
		l.mu.Lock(p)
		l.sendCnt[d]++
		l.mu.Unlock(p)
		return nil
	})
	if err != nil {
		return err
	}
	l.mu.Lock(p)
	l.putAppBuf(b.Data)
	l.bufs = append(l.bufs, b)
	l.mu.Unlock(p)
	return nil
}

// sendOne is MPI_Send: eager for small payloads, rendezvous otherwise.
func (l *lib) sendOne(p *sim.Proc, dest int, payload []byte, flags byte, value uint64) error {
	l.mu.Lock(p)
	p.Sleep(l.overhead)
	if len(payload) <= eagerLimit {
		// Eager: wait for credit, then copy-and-send.
		var waited sim.Duration
		for l.eagerSent[dest] >= l.eagerCredit[dest] {
			l.progress(p)
			if l.eagerSent[dest] < l.eagerCredit[dest] {
				break
			}
			l.mu.Unlock(p)
			if !l.cq.WaitNonEmpty(p, 200*time.Microsecond) {
				if waited += 200 * time.Microsecond; waited > stallTimeout {
					return fmt.Errorf("%w: MPI eager credit to %d", shuffle.ErrStalled, dest)
				}
			}
			l.mu.Lock(p)
		}
		l.eagerSent[dest]++
		l.ctlSend(p, dest, msgHeader{
			kind: kindEager, flags: flags, src: uint16(l.node), value: value,
		}, payload)
		l.mu.Unlock(p)
		return nil
	}

	// Rendezvous: RTS, wait for CTS (requires remote progress), send data.
	l.nextMsgID++
	id := l.nextMsgID
	l.ctlSend(p, dest, msgHeader{kind: kindRTS, msgID: id, src: uint16(l.node),
		payload: uint32(len(payload))}, nil)
	var waited sim.Duration
	for !l.granted[id] {
		l.progress(p)
		if l.granted[id] {
			break
		}
		l.mu.Unlock(p)
		if !l.cq.WaitNonEmpty(p, 200*time.Microsecond) {
			if waited += 200 * time.Microsecond; waited > stallTimeout {
				return fmt.Errorf("%w: MPI CTS from %d", shuffle.ErrStalled, dest)
			}
		}
		l.mu.Lock(p)
	}
	delete(l.granted, id)

	// Copy into registered staging (the library-internal copy) and post.
	var off int
	for {
		var ok bool
		if off, ok = l.takeStaging(); ok {
			break
		}
		l.progress(p)
	}
	h := msgHeader{kind: kindData, flags: flags, src: uint16(l.node),
		msgID: id, payload: uint32(len(payload)), value: value}
	putHdr(l.stagingMR.Bytes(off, hdrSize), h)
	// The library copies the payload into registered staging under the
	// lock (this MVAPICH generation does not hit its registration cache
	// for the shuffle's cycling buffer pool).
	p.Sleep(sim.Duration(float64(len(payload)) * l.prof().MemCopyPerByte))
	copy(l.stagingMR.Bytes(off+hdrSize, len(payload)), payload)
	for {
		err := l.dataQP[dest].PostSend(p, verbs.SendWR{
			ID: uint64(off) + 1, Op: verbs.OpSend,
			MR: l.stagingMR, Offset: off, Len: hdrSize + len(payload),
		})
		if err == nil {
			break
		}
		if err != verbs.ErrSQFull {
			l.mu.Unlock(p)
			return fmt.Errorf("mpi: data send: %v", err)
		}
		l.progress(p)
	}
	l.mu.Unlock(p)
	return nil
}

// Finish implements shuffle.SendEndpoint: after the tails, every peer
// learns the total message count (totals ride an eager marker), then
// outstanding staging drains.
func (l *lib) Finish(p *sim.Proc, tails ...shuffle.Tail) error {
	for _, t := range tails {
		if err := l.Send(p, t.Buf, t.Dest); err != nil {
			return err
		}
	}
	return shuffle.FanOut(l.node, shuffle.Broadcast(l.n)[0], func(d int) error {
		l.mu.Lock(p)
		cnt := l.sendCnt[d]
		l.mu.Unlock(p)
		return l.sendOne(p, d, nil, flagDepleted|flagTotal, cnt)
	})
}

// GetData implements shuffle.RecvEndpoint (MPI_Irecv + progress).
func (l *lib) GetData(p *sim.Proc) (*shuffle.Data, error) {
	var waited sim.Duration
	for {
		l.mu.Lock(p)
		p.Sleep(l.overhead / 2)
		l.progress(p)
		it := l.ready.pop()
		done := l.allDone()
		l.mu.Unlock(p)
		if it != nil {
			return it, nil
		}
		if done {
			return nil, nil
		}
		if !l.cq.WaitNonEmpty(p, 200*time.Microsecond) {
			if waited += 200 * time.Microsecond; waited > stallTimeout {
				return nil, fmt.Errorf("%w: MPI GetData on node %d", shuffle.ErrStalled, l.node)
			}
		} else {
			waited = 0
		}
	}
}

func (l *lib) allDone() bool {
	if l.knownN < l.n {
		return false
	}
	for s := 0; s < l.n; s++ {
		if l.recvd[s] != l.total[s] {
			return false
		}
	}
	return len(l.ready.items) == 0
}

// Release implements shuffle.RecvEndpoint.
func (l *lib) Release(p *sim.Proc, d *shuffle.Data) error {
	l.mu.Lock(p)
	if d.Remote > 0 {
		l.rdvFree = append(l.rdvFree, int(d.Remote-1))
		l.grantRTS(p)
	} else if d.Payload != nil {
		l.putAppBuf(d.Payload)
	}
	l.datas.Put(d)
	l.mu.Unlock(p)
	return nil
}
