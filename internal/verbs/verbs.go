// Package verbs provides an InfiniBand-verbs-shaped RDMA API over the
// simulated fabric: devices, memory regions, completion queues, and Reliable
// Connection / Unreliable Datagram Queue Pairs supporting the Send, Receive,
// Read, and Write transport functions.
//
// The API mirrors the ibv_* interface closely enough that the paper's
// algorithms translate line for line: receive buffers must be posted before
// a Send arrives (RC retries after an RNR delay; UD drops silently), UD
// receive payloads land after a 40-byte GRH gap, one-sided Read/Write never
// involve the remote CPU, and every verb charges the calling Proc the
// calibrated CPU cost from the fabric profile.
package verbs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// GRHSize is the number of bytes reserved at the front of every UD receive
// buffer, as in real IB verbs (the Global Routing Header area).
const GRHSize = 40

// Exported error values returned by the posting verbs.
var (
	ErrSQFull       = errors.New("verbs: send queue full")
	ErrRQFull       = errors.New("verbs: receive queue full")
	ErrTooLong      = errors.New("verbs: message exceeds transport limit")
	ErrNotConnected = errors.New("verbs: RC queue pair not connected")
	ErrBadOp        = errors.New("verbs: operation not supported by transport")
	ErrOutOfRange   = errors.New("verbs: access outside memory region")
	// ErrQPError is returned by the posting verbs once the queue pair has
	// transitioned to the Error state; outstanding work has been flushed.
	ErrQPError = errors.New("verbs: queue pair in error state")
	// ErrPeerDown is returned by the posting verbs on an RC queue pair whose
	// peer the connection manager has declared dead (NotifyPeerDown): the
	// post fails immediately instead of burning the transport retry budget.
	ErrPeerDown = errors.New("verbs: peer declared down by connection manager")
)

// WCStatus is a work completion status, mirroring ibv_wc_status. The zero
// value is success, so completions constructed by healthy paths need no
// explicit status.
type WCStatus int

const (
	// WCSuccess marks a successfully completed work request.
	WCSuccess WCStatus = iota
	// WCRNRRetryExceeded marks a Send whose peer kept answering RNR NAK
	// (no posted receive) past the QP's rnr_retry budget.
	WCRNRRetryExceeded
	// WCRetryExceeded marks a work request whose transport-level retries
	// (lost packets, missing ACKs, dead peer) exceeded retry_cnt.
	WCRetryExceeded
	// WCFlushErr marks a work request flushed unexecuted because its QP
	// entered the Error state (IBV_WC_WR_FLUSH_ERR).
	WCFlushErr
	// WCPeerDown marks a work request flushed because the connection manager
	// declared the QP's peer dead (a disconnect/fatal async event in real
	// verbs); it is more diagnosable than the generic flush status.
	WCPeerDown
	// WCFenced marks a work request rejected at the responder because the
	// posting QP was connected under a stale boot epoch: the peer rebooted
	// since, and its memory must not be touched by pre-reboot writers. The
	// responder never executes the request (remote access error semantics).
	WCFenced
)

func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "success"
	case WCRNRRetryExceeded:
		return "RNR retry exceeded"
	case WCRetryExceeded:
		return "transport retry exceeded"
	case WCFlushErr:
		return "WR flushed"
	case WCPeerDown:
		return "peer down"
	case WCFenced:
		return "fenced by stale epoch"
	}
	return "unknown"
}

// QPState is the queue pair state: Ready (RTS) or Error.
type QPState int

const (
	// QPReady is the normal operating state (collapsing INIT/RTR/RTS).
	QPReady QPState = iota
	// QPError is entered on retry exhaustion; outstanding WRs are flushed
	// with WCFlushErr and further posts fail with ErrQPError.
	QPError
)

// Device is a per-node verbs context (the result of ibv_open_device).
type Device struct {
	net *fabric.Network
	// sim runs this device's events; cross-device interactions route
	// through the fabric (see QP.home).
	sim     *sim.Simulation
	node    int
	nextQPN uint32
	nextKey uint32
	qps     map[uint32]*QP
	mrs     map[uint32]*MR

	registered     int64
	peakRegistered int64
	// materialized counts the registered bytes that have host memory behind
	// them (see MR); it follows what a run touches, not what it registers.
	materialized     int64
	peakMaterialized int64

	// memWake is broadcast whenever a one-sided Write (or Read-side buffer
	// fill) lands in this node's memory, so applications that poll plain
	// memory locations can block instead of spinning the scheduler.
	memWake *sim.Cond

	// mcast holds this node's multicast group attachments.
	mcast map[uint32][]*QP

	// udFree is this device's free list of UD datagram records (ring.go).
	udFree []*udDatagram

	// deadPeers records nodes the connection manager has declared dead;
	// peerDownFns are the registered disconnect-event handlers, invoked in
	// registration order.
	deadPeers   map[int]bool
	peerDownFns []func(peer int)

	// epoch is this device's boot incarnation, starting at 1. The connection
	// manager bumps it when the node reboots (its memory is gone); QPs
	// capture the responder's epoch at Connect and the responder fences work
	// requests carrying a stale one (see QP fencing in qp.go).
	epoch uint64

	// rl holds the active DCQCN rate limiters by local QPN (lossy tier
	// only); a QP with no entry transmits at line rate. cnpLast coalesces
	// CNP generation per remote flow (keyed by the sender's QP cache key).
	rl      map[uint32]*dcqcn
	cnpLast map[uint64]sim.Time

	stats DeviceStats
}

// DeviceStats counts verb-level activity on one device.
type DeviceStats struct {
	// Posts counts the work requests queue pairs accepted: a post refused
	// with an error (ErrSQFull, say) is charged its PostCost but not
	// counted, so the count does not move with how often a full send queue
	// was retried.
	Posts, Polls    int64
	RNRRetries      int64
	UDNoRecvDrops   int64
	RemoteWrites    int64
	SendsCompleted  int64
	RecvsCompleted  int64
	ReadsCompleted  int64
	WritesCompleted int64
	// TransportRetries counts RC packets queued for retransmission after a
	// loss (injected or congestion tail drop); QPErrors counts queue pairs
	// that entered the Error state.
	TransportRetries int64
	QPErrors         int64
	// CNPsSent counts congestion notification packets this device generated
	// for ECN-marked arrivals; CNPsReceived counts CNPs applied to local
	// QPs; RateCuts counts the resulting multiplicative rate cuts.
	CNPsSent, CNPsReceived int64
	RateCuts               int64
	// QPsCreated counts CreateQP calls; the telemetry layer derives the
	// paper's Table 1 Queue Pair census from it.
	QPsCreated int64
	// StaleFenced counts work requests from stale-epoch Queue Pairs rejected
	// at this device before touching its memory.
	StaleFenced int64
}

// Open returns the verbs context for the given node.
func Open(net *fabric.Network, node int) *Device {
	d := &Device{
		net:   net,
		node:  node,
		qps:   make(map[uint32]*QP),
		mrs:   make(map[uint32]*MR),
		mcast: make(map[uint32][]*QP),
		rl:    make(map[uint32]*dcqcn),
		epoch: 1,
	}
	d.sim = net.SimAt(node)
	d.memWake = d.sim.NewCond(fmt.Sprintf("memwake@%d", node))
	return d
}

// Node returns the fabric node id of this device.
func (d *Device) Node() int { return d.node }

// Sim returns the simulation running this device's events.
func (d *Device) Sim() *sim.Simulation { return d.sim }

// Network returns the underlying fabric.
func (d *Device) Network() *fabric.Network { return d.net }

// Stats returns a copy of the device counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// PublishMetrics copies the device counters into the registry under
// "verbs.<metric>.node<i>" names plus "verbs.<metric>.total" aggregates.
// Publish into a fresh registry per run: counters accumulate.
func (d *Device) PublishMetrics(reg *telemetry.Registry) {
	for _, it := range []struct {
		name string
		v    int64
	}{
		{"posts", d.stats.Posts},
		{"polls", d.stats.Polls},
		{"rnr_retries", d.stats.RNRRetries},
		{"transport_retries", d.stats.TransportRetries},
		{"ud_no_recv_drops", d.stats.UDNoRecvDrops},
		{"remote_writes", d.stats.RemoteWrites},
		{"sends_completed", d.stats.SendsCompleted},
		{"recvs_completed", d.stats.RecvsCompleted},
		{"reads_completed", d.stats.ReadsCompleted},
		{"writes_completed", d.stats.WritesCompleted},
		{"qp_errors", d.stats.QPErrors},
		{"qps_created", d.stats.QPsCreated},
		{"cnps_sent", d.stats.CNPsSent},
		{"cnps_received", d.stats.CNPsReceived},
		{"rate_cuts", d.stats.RateCuts},
		{"stale_fenced", d.stats.StaleFenced},
	} {
		reg.Counter(fmt.Sprintf("verbs.%s.node%d", it.name, d.node)).Add(it.v)
		reg.Counter("verbs." + it.name + ".total").Add(it.v)
	}
	reg.Gauge(fmt.Sprintf("verbs.registered_bytes.node%d", d.node)).Set(float64(d.registered))
	reg.Gauge(fmt.Sprintf("verbs.peak_registered_bytes.node%d", d.node)).Set(float64(d.peakRegistered))
	reg.Gauge(fmt.Sprintf("verbs.peak_materialized_bytes.node%d", d.node)).Set(float64(d.peakMaterialized))
}

func (d *Device) prof() *fabric.Profile { return &d.net.Prof }

// tr returns the node's trace shard; nil (tracing disabled) is safe to emit
// on, so callers never branch.
func (d *Device) tr() *telemetry.Tracer { return d.net.TracerAt(d.node) }

// MR is a registered memory region; remote peers address it by (RKey,
// offset). Its registered length is fixed at registration, but the host
// memory behind it is a table of equally sized chunks, each holding a whole
// number of slots: a region registered over caller memory is the one-chunk
// case, while a ring from AllocRingNoCost starts with no chunk backed and
// draws each from the registered-buffer pool the first time Bytes touches it
// (see bufpool.go). All access goes through Bytes.
type MR struct {
	dev  *Device
	LKey uint32
	RKey uint32

	size   int      // registered bytes
	chunk  int      // bytes per chunk; the last chunk may be shorter
	chunks [][]byte // backing by chunk index; nil until materialised
	// pooled marks regions whose chunks come from the registered-buffer
	// pool; RecycleMRs returns them to it.
	pooled bool
}

// Len returns the registered length of the region in bytes.
func (m *MR) Len() int { return m.size }

// locate resolves an n-byte access at off to a chunk index and the offset
// within that chunk. It returns ErrOutOfRange (bare) when the access leaves
// the region, and an error wrapping ErrOutOfRange that names the region and
// offsets when it straddles two chunks — slots never do, so that is a caller
// bug which a contiguous region would have hidden behind a short copy.
func (m *MR) locate(off, n int) (i, lo int, err error) {
	if off < 0 || n < 0 || off+n > m.size {
		return 0, 0, ErrOutOfRange
	}
	if n == 0 {
		return 0, 0, nil
	}
	i = off / m.chunk
	lo = off - i*m.chunk
	if lo+n > m.chunk {
		return 0, 0, fmt.Errorf("%w: MR %d access [%d, %d) straddles the slot chunk boundary at %d",
			ErrOutOfRange, m.RKey, off, off+n, (i+1)*m.chunk)
	}
	return i, lo, nil
}

// check reports whether a work request may address [off, off+n).
func (m *MR) check(off, n int) error {
	_, _, err := m.locate(off, n)
	return err
}

// Bytes returns the n bytes of the region starting at off, backing them
// with host memory if nothing has touched their chunk yet. Like real pinned
// memory, bytes nobody has written have unspecified contents. It panics,
// naming the region and the offsets, on an access outside the region or
// across a chunk boundary.
func (m *MR) Bytes(off, n int) []byte {
	i, lo, err := m.locate(off, n)
	if err != nil {
		panic(fmt.Sprintf("verbs: MR %d on node %d (%d bytes), access [%d, %d): %v",
			m.RKey, m.dev.node, m.size, off, off+n, err))
	}
	if n == 0 {
		return nil
	}
	c := m.chunks[i]
	if c == nil {
		c = m.materialize(i)
	}
	return c[lo : lo+n : lo+n]
}

// RegisterMRNoCost registers buf without charging virtual time: shuffle.Build
// charges the registration cost of an operator's regions once, as
// Comm.RegTime.
func (d *Device) RegisterMRNoCost(buf []byte) *MR {
	mr := d.register(len(buf), len(buf))
	if len(buf) > 0 {
		mr.chunks[0] = buf
		d.addMaterialized(int64(len(buf)))
	}
	return mr
}

// register creates a size-byte region split into chunk-byte chunks, none of
// them backed yet, and charges it to the registered-bytes accounting.
func (d *Device) register(size, chunk int) *MR {
	d.nextKey++
	mr := &MR{dev: d, LKey: d.nextKey, RKey: d.nextKey, size: size, chunk: chunk}
	if size > 0 {
		mr.chunks = make([][]byte, (size+chunk-1)/chunk)
	}
	d.mrs[mr.RKey] = mr
	d.registered += int64(size)
	if d.registered > d.peakRegistered {
		d.peakRegistered = d.registered
	}
	return mr
}

func (d *Device) addMaterialized(n int64) {
	d.materialized += n
	if d.materialized > d.peakMaterialized {
		d.peakMaterialized = d.materialized
	}
}

// release drops the region from the device's tables and accounting and, for
// a pooled region, parks the chunks that were materialised. Idempotent.
func (m *MR) release() {
	d := m.dev
	if d.mrs[m.RKey] != m {
		return
	}
	delete(d.mrs, m.RKey)
	d.registered -= int64(m.size)
	for _, c := range m.chunks {
		if c == nil {
			continue
		}
		d.materialized -= int64(len(c))
		if m.pooled {
			bufpool.Put(c)
		}
	}
	m.size, m.chunks = 0, nil
}

// RegisteredBytes returns the bytes currently registered on this device.
func (d *Device) RegisteredBytes() int64 { return d.registered }

// AttachMulticast joins qp (which must be UD) to the multicast group mgid,
// like ibv_attach_mcast. Datagrams sent to the group consume posted
// receives exactly like unicast UD sends.
func (d *Device) AttachMulticast(qp *QP, mgid uint32) error {
	if qp.cfg.Type != fabric.UD {
		return ErrBadOp
	}
	d.mcast[mgid] = append(d.mcast[mgid], qp)
	return nil
}

// KickMemWaiters wakes every Proc blocked in WaitMemChange; see CQ.Kick.
func (d *Device) KickMemWaiters() { d.memWake.Broadcast() }

// Epoch returns this device's boot incarnation (1 at open).
func (d *Device) Epoch() uint64 { return d.epoch }

// BumpEpoch advances the device's boot epoch. The cluster's connection
// manager calls it when the node's port returns from a reboot: the node's
// memory is a fresh incarnation, and any Queue Pair still connected under
// the old epoch is fenced at this responder before it can touch it.
func (d *Device) BumpEpoch() {
	d.epoch++
	// Wake memory pollers: their world changed even though no write landed.
	d.memWake.Broadcast()
}

// PeerDown reports whether the connection manager has declared node dead.
func (d *Device) PeerDown(node int) bool { return d.deadPeers[node] }

// OnPeerDown registers a connection-manager disconnect handler, invoked once
// per dead peer in registration order from scheduler context; handlers must
// not block.
func (d *Device) OnPeerDown(fn func(peer int)) {
	d.peerDownFns = append(d.peerDownFns, fn)
}

// NotifyPeerDown is the connection-manager disconnect event: it marks peer
// dead, transitions every connected RC queue pair bound to it into the Error
// state (outstanding work flushes with WCPeerDown), and invokes the
// registered OnPeerDown handlers. Subsequent posts on those QPs — and on any
// QP later connected to peer — fail fast with ErrPeerDown. It is idempotent
// and runs in scheduler context.
func (d *Device) NotifyPeerDown(peer int) {
	if d.deadPeers[peer] {
		return
	}
	if d.deadPeers == nil {
		d.deadPeers = make(map[int]bool)
	}
	d.deadPeers[peer] = true
	d.tr().Instant(d.sim.Now(), telemetry.EvPeerDown, int32(d.node), 0, int64(peer), 0)
	// QPNs ascend from 1; iterating them in order keeps teardown (and thus
	// the flush-completion order) deterministic across runs.
	for qpn := uint32(1); qpn <= d.nextQPN; qpn++ {
		qp := d.qps[qpn]
		if qp == nil || qp.cfg.Type != fabric.RC || !qp.connected || qp.peerNode != peer {
			continue
		}
		qp.enterError(nil, WCPeerDown)
	}
	for _, fn := range d.peerDownFns {
		fn(peer)
	}
	d.memWake.Broadcast()
}

// WaitMemChange blocks p until a remote one-sided operation modifies this
// node's memory, or until the timeout elapses. It models an application
// spin-polling a plain memory location; each wakeup charges one poll cost.
// It returns false on timeout. A non-positive timeout waits indefinitely,
// which lets the simulator's deadlock detector catch protocol bugs.
func (d *Device) WaitMemChange(p *sim.Proc, timeout sim.Duration) bool {
	ok := true
	if timeout <= 0 {
		d.memWake.Wait(p)
	} else {
		ok = d.memWake.WaitTimeout(p, timeout)
	}
	p.Sleep(d.prof().PollCost)
	return ok
}

// Opcode identifies a work request or completion type.
type Opcode int

const (
	OpSend Opcode = iota
	OpRecv
	OpRead
	OpWrite
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpRead:
		return "READ"
	default:
		return "WRITE"
	}
}

// CQE is a completion queue entry.
type CQE struct {
	QPN   uint32
	WRID  uint64
	Op    Opcode
	Bytes int
	// Status reports how the work request completed; the zero value is
	// WCSuccess. Consumers must check it before trusting Bytes or Imm.
	Status WCStatus
	// Imm carries the immediate data of the Send that produced a receive
	// completion, when HasImm is set.
	Imm    uint32
	HasImm bool
	// SrcNode and SrcQPN identify the sender for receive completions (on UD
	// they come from the datagram's address header).
	SrcNode int
	SrcQPN  uint32
}

// Err returns nil for successful completions and a descriptive error for
// failed ones.
func (e CQE) Err() error {
	if e.Status == WCSuccess {
		return nil
	}
	return fmt.Errorf("verbs: %s wr %d on qp %d failed: %s", e.Op, e.WRID, e.QPN, e.Status)
}

// CQ is a completion queue.
type CQ struct {
	dev     *Device
	cap     int
	entries fifo[CQE]
	cond    *sim.Cond
}

// CreateCQ returns a completion queue that can hold at most capacity
// entries; overflowing it panics, as a CQ overrun is a protocol bug.
func (d *Device) CreateCQ(capacity int) *CQ {
	return &CQ{
		dev:  d,
		cap:  capacity,
		cond: d.sim.NewCond(fmt.Sprintf("cq@%d", d.node)),
	}
}

func (cq *CQ) push(e CQE) {
	if cq.entries.n >= cq.cap {
		panic(fmt.Sprintf("verbs: CQ overrun on node %d (cap %d)", cq.dev.node, cq.cap))
	}
	cq.entries.push(e)
	cq.cond.Broadcast()
}

// pushFlush delivers an error completion generated while flushing a QP.
// Flushes may momentarily exceed the CQ capacity (the whole receive queue
// errors out at once); real hardware reports these through the same CQ, and
// panicking here would turn a survivable fault into a crash.
func (cq *CQ) pushFlush(e CQE) {
	cq.entries.push(e)
	cq.cond.Broadcast()
}

// Poll retrieves up to len(dst) completions without blocking, charging one
// poll cost. It returns the number of entries written.
func (cq *CQ) Poll(p *sim.Proc, dst []CQE) int {
	p.Sleep(cq.dev.prof().PollCost)
	cq.dev.stats.Polls++
	n := cq.entries.copyTo(dst)
	cq.entries.drop(n)
	if n > 0 {
		// Empty polls are the receive loop's idle spin; only fruitful ones
		// carry timeline information worth a trace slot.
		cq.dev.tr().Instant(cq.dev.sim.Now(), telemetry.EvCQPoll, int32(cq.dev.node), 0, int64(n), 0)
	}
	return n
}

// WaitPoll blocks until at least one completion is available, then behaves
// like Poll. Blocking models a spin-poll loop whose idle iterations are not
// charged (the paper reports receive-side threads up to 90% idle).
func (cq *CQ) WaitPoll(p *sim.Proc, dst []CQE) int {
	for cq.entries.n == 0 {
		cq.cond.Wait(p)
	}
	return cq.Poll(p, dst)
}

// WaitPollTimeout is WaitPoll with a deadline; it returns 0 on timeout.
func (cq *CQ) WaitPollTimeout(p *sim.Proc, dst []CQE, timeout sim.Duration) int {
	if cq.entries.n == 0 {
		if !cq.cond.WaitTimeout(p, timeout) && cq.entries.n == 0 {
			return 0
		}
	}
	for cq.entries.n == 0 {
		// A spurious wake; keep waiting within a fresh timeout window.
		if !cq.cond.WaitTimeout(p, timeout) && cq.entries.n == 0 {
			return 0
		}
	}
	return cq.Poll(p, dst)
}

// WaitNonEmpty blocks p until the CQ holds at least one completion or the
// timeout elapses, without consuming anything. It returns false on timeout.
// Use it in loops that must also observe conditions other than the CQ.
func (cq *CQ) WaitNonEmpty(p *sim.Proc, timeout sim.Duration) bool {
	if cq.entries.n > 0 {
		return true
	}
	if timeout <= 0 {
		cq.cond.Wait(p)
		return true
	}
	return cq.cond.WaitTimeout(p, timeout)
}

// Kick wakes every Proc blocked on this CQ without delivering anything.
// Protocol layers use it when an end-of-stream predicate flips so waiters
// re-check immediately instead of after their wait quantum.
func (cq *CQ) Kick() { cq.cond.Broadcast() }

// Len returns the number of queued completions.
func (cq *CQ) Len() int { return cq.entries.n }

// PutUint64 and ReadUint64 are helpers for protocols that poll plain
// memory words updated by remote writes (credit counters, circular-queue
// slots).
func PutUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func ReadUint64(b []byte) uint64   { return binary.LittleEndian.Uint64(b) }
func PutUint32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func ReadUint32(b []byte) uint32   { return binary.LittleEndian.Uint32(b) }
