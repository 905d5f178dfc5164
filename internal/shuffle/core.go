package shuffle

import (
	"fmt"
	"sort"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// The endpoint core: everything the four designs of §4.4 have in common.
// Algorithms 1–3 differ in how a buffer is transmitted, how flow control
// travels back, and when a send buffer may be reused; the design files
// (srrc.go, srud.go, rdrc.go, wrrc.go) hold exactly that. Peer membership,
// the send-buffer pool, the 8-byte circular queues, completion reaping and
// error attribution live here once, embedded by value.

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

// after records the outcome of the wait step sized: a wakeup resets the
// backoff; a timeout doubles the next quantum and reports false once the
// accumulated fruitless wait exceeds the stall limit.
func (w *waiter) after(woke bool) bool {
	if woke {
		w.quantum, w.waited = waitQuantum, 0
		return true
	}
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

// allNodes returns {0..n-1}: the full-cluster broadcast group.
func allNodes(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// FanOut calls visit once for each member of dest, a list of node ids in
// ascending order, and stops at the first error. The walk starts at the
// first member after self and wraps: when every node of a cluster reaches
// the same fan-out at the same instant (the final flush, end-of-stream, a
// broadcast), node i targets i+1, i+2, … so the N senders meet N different
// downlinks in each step instead of converging on node 0, then node 1 — the
// phase order of a pairwise all-to-all (MVAPICH) and of Rödiger et al.'s
// round-robin network schedule. Every multi-destination loop of the
// endpoints, the SHUFFLE operator and the MPI and IPoIB baselines walks in
// this order.
func FanOut(self int, dest []int, visit func(d int) error) error {
	start := sort.SearchInts(dest, self+1)
	for i := range dest {
		j := start + i
		if j >= len(dest) {
			j -= len(dest)
		}
		if err := visit(dest[j]); err != nil {
			return err
		}
	}
	return nil
}

// endStream is the end-of-stream of the three RC designs: each tail goes to
// its group as one of the stream's last buffers, tagged Depleted (send's
// last argument) where no later tail shares a destination with it, and one
// zero-payload Depleted buffer goes to the nodes no tagged tail reached.
// Destinations keep the per-connection order, so a tagged buffer is the
// last thing its receiver sees from this endpoint.
func (c *endpoint) endStream(p *sim.Proc, tails []Tail,
	getFree func(*sim.Proc) (*Buf, error), send func(*sim.Proc, *Buf, []int, bool) error) error {
	// last[d] is one past the index of the final tail toward d, or 0.
	last := make([]int, c.n)
	for i, t := range tails {
		for _, d := range t.Dest {
			last[d] = i + 1
		}
	}
	reached := make([]bool, c.n)
	for i, t := range tails {
		tag := true
		for _, d := range t.Dest {
			tag = tag && last[d] == i+1
		}
		if err := send(p, t.Buf, t.Dest, tag); err != nil {
			return err
		}
		for _, d := range t.Dest {
			reached[d] = reached[d] || tag
		}
	}
	var rest []int
	for d, r := range reached {
		if !r {
			rest = append(rest, d)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	b, err := getFree(p)
	if err != nil {
		return err
	}
	b.Len = 0
	return send(p, b, rest, true)
}

// peerSet is an endpoint's view of its n peers: which the connection
// manager has declared dead, and (receive side) whose stream finished
// cleanly. Its exported methods make every endpoint a PeerDrainer and a
// ProgressReporter.
type peerSet struct {
	failed []bool
	done   []bool
	nDone  int
	// qpPeer maps each RC connection's QPN to its peer so a failed
	// completion can be attributed; UD endpoints leave it nil.
	qpPeer map[uint32]int
	// wake lists the completion queues a blocked call may be parked on, in
	// the order ClosePeer kicks them; wakeMem adds the device's memory
	// watchers (calls parked in WaitMemChange).
	wake    []*verbs.CQ
	wakeMem *verbs.Device
}

func newPeerSet(n int) peerSet {
	return peerSet{failed: make([]bool, n), done: make([]bool, n)}
}

func (s *peerSet) has(peer int) bool { return peer >= 0 && peer < len(s.failed) }

// DrainPeer implements PeerDrainer: the peer is marked failed, so blocked
// calls that observe the mark fail with ErrPeerFailed instead of waiting on
// credit, grants or data the dead node will never produce.
func (s *peerSet) DrainPeer(peer int) {
	if s.has(peer) {
		s.failed[peer] = true
	}
}

// ClosePeer implements PeerDrainer: every blocked call wakes to re-check
// the failed marks.
func (s *peerSet) ClosePeer(int) {
	for _, cq := range s.wake {
		cq.Kick()
	}
	if s.wakeMem != nil {
		s.wakeMem.KickMemWaiters()
	}
}

// Depleted implements ProgressReporter: the stream from src completed once
// its end-of-stream marker arrived.
func (s *peerSet) Depleted(src int) bool { return s.has(src) && s.done[src] }

// markDone records src's end-of-stream marker and reports whether every
// source has now sent one.
func (s *peerSet) markDone(src int) bool {
	s.done[src] = true
	s.nDone++
	return s.allDone()
}

func (s *peerSet) allDone() bool { return s.nDone >= len(s.done) }

// anyFailed returns a failed peer, if one exists. A send endpoint owes
// every peer at least the end-of-stream marker, so any failure is fatal.
func (s *peerSet) anyFailed() (int, bool) {
	for peer, f := range s.failed {
		if f {
			return peer, true
		}
	}
	return 0, false
}

// missingFailed returns a failed source whose stream is still incomplete.
// A failed source that already finished owes nothing, so the receiver can
// still complete.
func (s *peerSet) missingFailed() (int, bool) {
	for src, f := range s.failed {
		if f && !s.done[src] {
			return src, true
		}
	}
	return 0, false
}

// deadPeer attributes a failed completion to its connection's peer and
// reports whether that peer is the cause: the connection manager tore the
// connection down, or the peer is already marked failed.
func (s *peerSet) deadPeer(c verbs.CQE) (int, bool) {
	peer, ok := s.qpPeer[c.QPN]
	return peer, ok && (c.Status == verbs.WCPeerDown || s.failed[peer])
}

// cqeErr converts a failed completion into ErrPeerFailed when a dead peer
// explains it and into a plain transport error otherwise.
func (s *peerSet) cqeErr(c verbs.CQE) error {
	if peer, dead := s.deadPeer(c); dead {
		return peerFailedErr(peer)
	}
	return wcErr(c)
}

// postErr attributes a failed post toward peer: the connection manager
// tearing the connection down means the peer failed.
func postErr(peer int, err error) error {
	if err == verbs.ErrPeerDown {
		return peerFailedErr(peer)
	}
	return err
}

// sendPool is a SEND endpoint's pool of registered transmission buffers. A
// buffer handed to the wire toward k destinations owes k completions; the
// k-th returns it to the free list. Each slot has its Buf record, made the
// first time the slot is leased and leased with it from then on: like the
// registered bytes behind it, a record is made once and then cycled through
// GETFREE and the completions.
type sendPool struct {
	mr      *verbs.MR
	bufSize int
	free    []int  // offsets of reusable buffers, oldest first
	bufs    []*Buf // per slot: the record GETFREE hands out, once made
	// inFlight counts the slots that owe completions (Buf.owed).
	inFlight int
	// idBase offsets the work-request id of a buffer's transmissions: buffer
	// off completes as id idBase+off, and smaller ids belong to control
	// writes that share the completion queue.
	idBase uint64
}

func newSendPool(dev *verbs.Device, bufs, bufSize int, idBase uint64) sendPool {
	sp := sendPool{
		mr:      dev.AllocRingNoCost(bufs, bufSize),
		bufSize: bufSize,
		bufs:    make([]*Buf, bufs),
		idBase:  idBase,
	}
	for i := 0; i < bufs; i++ {
		sp.free = append(sp.free, i*bufSize)
	}
	return sp
}

// tryGet leases a free buffer without blocking.
func (sp *sendPool) tryGet() (*Buf, bool) {
	if len(sp.free) == 0 {
		return nil, false
	}
	off := sp.free[0]
	sp.free = sp.free[1:]
	b := sp.bufs[off/sp.bufSize]
	if b == nil {
		b = &Buf{Data: sp.mr.Bytes(off+HeaderSize, sp.bufSize-HeaderSize), off: off}
		sp.bufs[off/sp.bufSize] = b
	}
	b.Len = 0
	return b, true
}

// commit writes b's header and records that fanout completions must arrive
// before b is reusable.
func (sp *sendPool) commit(b *Buf, h header, fanout int) {
	putHeader(sp.mr.Bytes(b.off, HeaderSize), h)
	if b.owed == 0 {
		sp.inFlight++
	}
	b.owed = fanout
}

// id is the work-request id under which buffer off is transmitted.
func (sp *sendPool) id(off int) uint64 { return sp.idBase + uint64(off) }

// complete counts one completion toward buffer off; the last one owed
// returns it to the free list. A completion nothing is owed for is a
// protocol bug and reported, never counted below zero.
func (sp *sendPool) complete(off int) error {
	var b *Buf
	if i := off / sp.bufSize; off >= 0 && off%sp.bufSize == 0 && i < len(sp.bufs) {
		b = sp.bufs[i]
	}
	if b == nil || b.owed == 0 {
		return fmt.Errorf("shuffle: completion for send buffer %d, which is not in flight", off)
	}
	if b.owed--; b.owed > 0 {
		return nil
	}
	sp.inFlight--
	sp.free = append(sp.free, off)
	return nil
}

// DataRecs recycles a RECEIVE endpoint's Data records: GETDATA hands one
// out with each filled buffer, and RELEASE takes it back, so an endpoint
// holds as many records as buffers are out at once. (One record per receive
// slot, made up front, costs more than it saves: a query posts far more
// slots than it fills.) The zero value is ready to use.
type DataRecs struct{ spare []*Data }

// Get returns a record describing a buffer from src.
func (r *DataRecs) Get(src int, payload []byte, remote uint64) *Data {
	return r.get(src, payload, remote, 0)
}

// get is Get for a buffer in receive slot slot.
func (r *DataRecs) get(src int, payload []byte, remote uint64, slot int) *Data {
	var d *Data
	if n := len(r.spare); n > 0 {
		d = r.spare[n-1]
		r.spare = r.spare[:n-1]
	} else {
		d = new(Data)
	}
	*d = Data{Src: src, Payload: payload, Remote: remote, slot: slot}
	return d
}

// Put takes back a released record; its caller is done with it.
func (r *DataRecs) Put(d *Data) {
	*d = Data{}
	r.spare = append(r.spare, d)
}

// Slot encoding for the circular queues of Alg. 3 (FreeArr, ValidArr, and
// the Write design's SlotArr). One 8-byte word per slot:
// | offset:32 | length:24 | flags:7 | valid:1 |. A zero word is an empty
// slot; the consumer zeroes a slot after taking it, and queue capacity
// above the number of buffers that can be in flight guarantees a producer
// never overruns unconsumed entries.
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

// wordRing is one endpoint's half of a set of those circular queues: n
// queues of cap words in a registered region, one queue per peer. On the
// consumer side peers RDMA-Write words into mr and take pops them in order.
// On the producer side mr is the staging mirror of the queues this endpoint
// fills in its peers' memory, and win[peer] locates its queue there.
type wordRing struct {
	mr  *verbs.MR
	cap int
	pos []int       // per peer: words taken (consumer) or staged (producer)
	win []remoteWin // producer side only
}

func newWordRing(dev *verbs.Device, n, cap int) wordRing {
	return wordRing{
		mr:  dev.RegisterMRNoCost(make([]byte, 8*n*cap)),
		cap: cap,
		pos: make([]int, n),
		win: make([]remoteWin, n),
	}
}

// slot returns the byte offset in mr of the i-th word ever queued for peer.
func (r *wordRing) slot(peer, i int) int { return 8 * (peer*r.cap + i%r.cap) }

// window is where peer's producer must write to fill this ring's queue.
func (r *wordRing) window(peer int) remoteWin {
	return remoteWin{rkey: r.mr.RKey, base: r.slot(peer, 0)}
}

// take pops the next word of peer's queue, clearing its valid bit so the
// slot reads empty until the producer wraps around to it.
func (r *wordRing) take(peer int) (uint64, bool) {
	w := r.mr.Bytes(r.slot(peer, r.pos[peer]), 8)
	v := verbs.ReadUint64(w)
	if v&slotValid == 0 {
		return 0, false
	}
	verbs.PutUint64(w, 0)
	r.pos[peer]++
	return v, true
}

// stage reserves the next slot of this endpoint's queue at peer, stores word
// in its staging mirror, and returns the inline RDMA Write that publishes
// it. The slot is reserved before anything is posted, and each slot stages
// in its own word: PostSend yields before snapshotting the payload, and two
// threads sharing the endpoint must never target one slot or share one
// staging word.
func (r *wordRing) stage(peer int, word uint64) verbs.SendWR {
	i := r.pos[peer]
	r.pos[peer]++
	off := r.slot(peer, i)
	verbs.PutUint64(r.mr.Bytes(off, 8), word)
	return verbs.SendWR{
		Op: verbs.OpWrite, MR: r.mr, Offset: off, Len: 8, Inline: true,
		RemoteKey:    r.win[peer].rkey,
		RemoteOffset: r.win[peer].base + 8*(i%r.cap),
	}
}

// preset delivers word to consumer ring to — the queue it keeps for node me
// — as if this producer's RDMA Write toward peer had already landed: initial
// grants travel with the out-of-band connection setup.
func (r *wordRing) preset(peer int, to *wordRing, me int, word uint64) {
	verbs.PutUint64(to.mr.Bytes(to.slot(me, r.pos[peer]), 8), word)
	r.pos[peer]++
}

// endpoint is the state every endpoint half shares: its device and
// configuration, the verb-serializing gate, the peer set, its connections,
// and the completion queue of the work it posts.
type endpoint struct {
	dev  *verbs.Device
	cfg  Config
	n    int
	gate epGate
	peerSet

	// qps is the connection to each peer (RC designs; the UD design has a
	// single datagram QP and leaves it nil).
	qps []*verbs.QP
	// scq receives the completions of every work request the endpoint
	// posts; drain polls it scqBatch entries at a time.
	scq      *verbs.CQ
	scqBatch int
	// lenient marks a receive endpoint whose posts are flow-control writes:
	// one flushed toward a peer already dead cost the receiver nothing and
	// is skipped rather than reported.
	lenient bool
}

func newEndpoint(dev *verbs.Device, cfg Config, n int, name string, scqCap, scqBatch int) endpoint {
	return endpoint{
		dev: dev, cfg: cfg, n: n,
		gate:     newEPGate(dev.Sim(), fmt.Sprintf("%s@%d", name, dev.Node())),
		peerSet:  newPeerSet(n),
		scq:      dev.CreateCQ(scqCap),
		scqBatch: scqBatch,
	}
}

// createRCQPs creates the Reliable Connection queue pair toward each peer
// and records whose it is for error attribution.
func (c *endpoint) createRCQPs(recvCQ *verbs.CQ, maxSend, maxRecv int) {
	c.qps = make([]*verbs.QP, c.n)
	c.qpPeer = make(map[uint32]int)
	for peer := range c.qps {
		c.qps[peer] = c.dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: c.scq, RecvCQ: recvCQ,
			MaxSend: maxSend, MaxRecv: maxRecv,
		})
		c.qpPeer[c.qps[peer].QPN()] = peer
	}
}

// connectRC cross-connects node a's send-side QP toward b with b's
// receive-side QP from a, for every pair.
func connectRC(send, recv []*endpoint) {
	for a, s := range send {
		for b, r := range recv {
			must(s.qps[b].Connect(b, r.qps[a].QPN()))
			must(r.qps[a].Connect(a, s.qps[b].QPN()))
		}
	}
}

// reap consumes one polled batch in full: successful completions that carry
// a pool buffer's id count toward returning it, and the first failure is
// reported after the whole batch is processed, so completions dequeued
// behind a failed one are never dropped.
func (c *endpoint) reap(es []verbs.CQE, pool *sendPool) error {
	var first error
	for _, e := range es {
		var err error
		switch {
		case e.Status != verbs.WCSuccess:
			if _, dead := c.deadPeer(e); dead && c.lenient {
				continue
			}
			err = c.cqeErr(e)
		case pool != nil && e.WRID >= pool.idBase:
			err = pool.complete(int(e.WRID - pool.idBase))
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// drain polls scq until it is empty, or a batch reports a failure.
func (c *endpoint) drain(p *sim.Proc, pool *sendPool) error {
	for c.scq.Len() > 0 {
		var es [16]verbs.CQE // declared here: the usual call finds scq empty
		n := c.gate.poll(p, c.scq, es[:c.scqBatch])
		if err := c.reap(es[:n], pool); err != nil {
			return err
		}
	}
	return nil
}

// post posts wr on qp. A full send queue is not an error: completions free
// its slots, so post blocks for one, drains scq and tries again.
func (c *endpoint) post(p *sim.Proc, qp *verbs.QP, wr verbs.SendWR, pool *sendPool) error {
	for {
		err := c.gate.post(p, qp, wr)
		if err != verbs.ErrSQFull {
			return err
		}
		c.scq.WaitNonEmpty(p, 0)
		if err := c.drain(p, pool); err != nil {
			return err
		}
	}
}

// putWord publishes word in this endpoint's queue of ring out at peer.
func (c *endpoint) putWord(p *sim.Proc, out *wordRing, peer int, word uint64, pool *sendPool) error {
	return c.post(p, c.qps[peer], out.stage(peer, word), pool)
}

// getFree is every GetFree: it leases a free buffer, blocking until one has
// completed toward all its destinations. reap and wait are flush's.
func (c *endpoint) getFree(p *sim.Proc, pool *sendPool,
	reap func(*sim.Proc) error, wait func(*sim.Proc, sim.Duration) (bool, error)) (*Buf, error) {
	w := newWaiter(c.cfg.StallTimeout)
	for {
		if b, ok := pool.tryGet(); ok {
			return b, nil
		}
		if reap != nil {
			if err := reap(p); err != nil {
				return nil, err
			}
			if b, ok := pool.tryGet(); ok {
				return b, nil
			}
		}
		woke, err := wait(p, w.step())
		if err != nil {
			return nil, err
		}
		if !w.after(woke) {
			return nil, fmt.Errorf("%w: GetFree on node %d (%d buffers outstanding)",
				ErrStalled, c.dev.Node(), pool.inFlight)
		}
	}
}

// flush is the tail of every Finish: it blocks until each buffer handed to
// the wire has completed toward all its destinations. The design supplies
// how completions are observed. reap, when non-nil, collects what is
// already there before each check (designs whose completions arrive through
// memory or are reaped eagerly); wait blocks up to q for more, reports
// whether it woke, and fails when a dead peer means the rest never arrive.
func (c *endpoint) flush(p *sim.Proc, pool *sendPool,
	reap func(*sim.Proc) error, wait func(*sim.Proc, sim.Duration) (bool, error)) error {
	w := newWaiter(c.cfg.StallTimeout)
	for pool.inFlight > 0 {
		if reap != nil {
			if err := reap(p); err != nil {
				return err
			}
			if pool.inFlight == 0 {
				break
			}
		}
		woke, err := wait(p, w.step())
		if err != nil {
			return err
		}
		if !w.after(woke) {
			return fmt.Errorf("%w: Finish flush on node %d (%d buffers outstanding)",
				ErrStalled, c.dev.Node(), pool.inFlight)
		}
	}
	return nil
}
