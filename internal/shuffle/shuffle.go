// Package shuffle implements the paper's contribution: RDMA-aware data
// shuffling for parallel database systems.
//
// It provides the communication-endpoint abstraction of §4.2 (SEND endpoints
// with GETFREE/SEND, RECEIVE endpoints with GETDATA/RELEASE), three endpoint
// implementations over different RDMA transport functions and services —
//
//   - SR/RC: RDMA Send/Receive over Reliable Connection with a stateless
//     credit protocol, the credit written back by RDMA Write (§4.4.1);
//   - SR/UD: RDMA Send/Receive over Unreliable Datagram with per-source
//     message counting and out-of-order Depleted handling (§4.4.2);
//   - RD/RC: one-sided RDMA Read over Reliable Connection with the
//     FreeArr/ValidArr circular-queue notification scheme (§4.4.3) —
//
// the transmission-group abstraction of §4.1 (repartition, multicast,
// broadcast), the pull-based SHUFFLE and RECEIVE operators of §4.3, and the
// SE/ME endpoint-count axis, yielding the six algorithms of Table 1:
// SESQ/SR, MESQ/SR, SEMQ/SR, MEMQ/SR, SEMQ/RD, MEMQ/RD.
package shuffle

import (
	"errors"
	"fmt"
	"time"

	"rshuffle/internal/engine"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// Impl selects the communication-endpoint implementation.
type Impl int

const (
	// SQSR uses one Queue Pair per endpoint with RDMA Send/Receive over the
	// Unreliable Datagram service.
	SQSR Impl = iota
	// MQSR uses one Queue Pair per peer with RDMA Send/Receive over the
	// Reliable Connection service.
	MQSR
	// MQRD uses one Queue Pair per peer with one-sided RDMA Read over the
	// Reliable Connection service.
	MQRD
	// MQWR uses one Queue Pair per peer with one-sided RDMA Write over the
	// Reliable Connection service — the paper's first future-work item.
	MQWR
)

func (i Impl) String() string {
	switch i {
	case SQSR:
		return "SQ/SR"
	case MQSR:
		return "MQ/SR"
	case MQRD:
		return "MQ/RD"
	default:
		return "MQ/WR"
	}
}

// Config selects one point in the paper's design space.
type Config struct {
	Impl Impl
	// Endpoints is the number of endpoints per operator: 1 is the
	// single-endpoint (SE) configuration, the thread count is the
	// multi-endpoint (ME) configuration, and intermediate values reproduce
	// the Queue-Pair sweep of Fig. 11. Zero means 1.
	Endpoints int
	// BufSize is the transmission buffer (message) size in bytes, including
	// the 16-byte buffer header. UD ignores it and uses the MTU.
	BufSize int
	// BuffersPerPeer is the number of send buffers per thread per
	// destination (the paper uses double buffering, 2).
	BuffersPerPeer int
	// RecvBuffersPerPeer is the number of posted receive buffers per thread
	// per source (the paper's receive-throughput setup uses 16).
	RecvBuffersPerPeer int
	// CreditFrequency is how many receives are posted before the receiver
	// writes back credit (Fig. 8 sweeps 1..16; default 2).
	CreditFrequency int
	// DepletedTimeout bounds how long a UD receiver waits for outstanding
	// packets after the totals are known; expiry is treated as a network
	// error and surfaces as ErrDataLoss (the query restarts).
	DepletedTimeout sim.Duration
	// StallTimeout bounds any single blocking endpoint call; it converts a
	// protocol deadlock into a diagnosable panic instead of a hang.
	StallTimeout sim.Duration
	// HWMulticast makes the SQ/SR (UD) endpoints use native InfiniBand
	// hardware multicast for full-cluster broadcast groups: one work
	// request per buffer instead of one per destination (the paper's third
	// future-work item).
	HWMulticast bool
}

// Defaulted fills zero fields with the paper's defaults.
func (c Config) Defaulted() Config {
	if c.Endpoints <= 0 {
		c.Endpoints = 1
	}
	if c.BufSize <= 0 {
		c.BufSize = 64 << 10
	}
	if c.BuffersPerPeer <= 0 {
		c.BuffersPerPeer = 2
	}
	if c.RecvBuffersPerPeer <= 0 {
		c.RecvBuffersPerPeer = 16
	}
	if c.CreditFrequency <= 0 {
		c.CreditFrequency = 2
	}
	if c.DepletedTimeout <= 0 {
		c.DepletedTimeout = 50 * time.Millisecond
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	return c
}

// Algorithm identifies one of the paper's six named designs.
type Algorithm struct {
	Name string
	Impl Impl
	// ME selects one endpoint per thread; otherwise one endpoint total.
	ME bool
}

// Algorithms lists the six designs of Table 1 in the paper's order.
var Algorithms = []Algorithm{
	{"MEMQ/SR", MQSR, true},
	{"MEMQ/RD", MQRD, true},
	{"MESQ/SR", SQSR, true},
	{"SEMQ/SR", MQSR, false},
	{"SEMQ/RD", MQRD, false},
	{"SESQ/SR", SQSR, false},
}

// ExtendedAlgorithms adds the RDMA Write designs the paper lists as future
// work to the six designs of Table 1.
var ExtendedAlgorithms = append(append([]Algorithm(nil), Algorithms...),
	Algorithm{"MEMQ/WR", MQWR, true},
	Algorithm{"SEMQ/WR", MQWR, false},
)

// Config materializes the algorithm into a Config for the given thread
// count.
func (a Algorithm) Config(threads int) Config {
	e := 1
	if a.ME {
		e = threads
	}
	return Config{Impl: a.Impl, Endpoints: e}.Defaulted()
}

// Groups is the transmission-group abstraction of §4.1: output buffer i is
// transmitted to every node in Groups[i]. Singleton groups repartition; a
// single group with every node broadcasts.
type Groups [][]int

// Repartition returns one singleton group per node: G = {{0},{1},...}.
func Repartition(n int) Groups {
	g := make(Groups, n)
	for i := range g {
		g[i] = []int{i}
	}
	return g
}

// Broadcast returns a single group containing every node.
func Broadcast(n int) Groups { return Groups{allNodes(n)} }

// Errors surfaced by endpoints.
var (
	// ErrDataLoss means the UD receiver timed out waiting for messages the
	// sender claims to have sent; the paper restarts the query.
	ErrDataLoss = errors.New("shuffle: message count mismatch after timeout (packet loss)")
	// ErrStalled means an endpoint call exceeded StallTimeout.
	ErrStalled = errors.New("shuffle: endpoint stalled")
	// ErrTransport means a work request completed with an error status (RNR
	// or transport retries exhausted, or a flush after a Queue Pair entered
	// the Error state). The query fragment fails and should restart.
	ErrTransport = errors.New("shuffle: transport failure")
	// ErrPeerFailed means a peer node was declared dead by the failure
	// detector while this endpoint still owed it (or was owed) traffic. The
	// query fragment fails and should be re-planned over the survivors.
	ErrPeerFailed = errors.New("shuffle: peer node failed")
)

// peerFailedErr tags a failure attributable to a dead peer.
func peerFailedErr(peer int) error {
	return fmt.Errorf("%w: node %d", ErrPeerFailed, peer)
}

// PeerDrainer is implemented by endpoints that support membership-aware
// teardown. When the failure detector suspects a peer, the connection
// manager calls DrainPeer then ClosePeer on every endpoint of each surviving
// node (from scheduler context — neither may block): the endpoint marks the
// peer failed and wakes every blocked caller, so SHUFFLE/RECEIVE terminate
// with ErrPeerFailed instead of waiting forever on credits, ValidArr slots,
// or UD message counts the dead node will never produce.
type PeerDrainer interface {
	DrainPeer(peer int)
	ClosePeer(peer int)
}

// ProgressReporter is implemented by receive endpoints that track
// per-source stream completion. Depleted reports whether the stream from
// src finished cleanly: its end-of-stream marker arrived and — for
// unreliable transports — every message the sender counted was received.
// Partial-restart recovery re-streams exactly the partitions for which some
// endpoint still reports false.
type ProgressReporter interface {
	Depleted(src int) bool
}

// wcErr converts a failed work completion into a transport error that the
// SHUFFLE/RECEIVE operators surface as a query-fragment failure.
func wcErr(c verbs.CQE) error {
	return fmt.Errorf("%w: %v", ErrTransport, c.Err())
}

// Buffer header layout. Every transmission buffer starts with a 16-byte
// header carrying the metadata the paper encodes in each buffer/message.
const (
	// HeaderSize is the per-buffer metadata prefix.
	HeaderSize = 16

	flagDepleted = 1 << 0 // end-of-stream marker from this source endpoint
	flagCredit   = 1 << 1 // UD credit datagram; off8 holds absolute credit
	flagTotal    = 1 << 2 // UD total-count datagram; off8 holds the total
)

type header struct {
	payload int
	flags   uint16
	src     uint16
	value   uint64 // credit or total count
}

func putHeader(b []byte, h header) {
	verbs.PutUint32(b[0:], uint32(h.payload))
	verbs.PutUint32(b[4:], uint32(h.flags)|uint32(h.src)<<16)
	verbs.PutUint64(b[8:], h.value)
}

func getHeader(b []byte) header {
	fs := verbs.ReadUint32(b[4:])
	return header{
		payload: int(verbs.ReadUint32(b[0:])),
		flags:   uint16(fs & 0xFFFF),
		src:     uint16(fs >> 16),
		value:   verbs.ReadUint64(b[8:]),
	}
}

// Buf is an RDMA-registered transmission buffer leased from a SEND endpoint
// via GETFREE. Write tuple data into Data and set Len before SEND.
type Buf struct {
	// Data is the tuple area (the region after the buffer header).
	Data []byte
	// Len is the number of valid bytes in Data.
	Len int

	off  int // offset of the header within the endpoint MR
	owed int // completions still owed before the slot is free again
}

// Cap returns the tuple-area capacity.
func (b *Buf) Cap() int { return len(b.Data) }

// Data is one received transmission buffer returned by GETDATA. It must be
// handed back via RELEASE before the receiver can reuse the slot. A nil
// *Data from GETDATA signals that every source endpoint has sent Depleted.
type Data struct {
	// Src is the source node.
	Src int
	// Payload holds the tuple bytes.
	Payload []byte
	// Remote is the buffer's address in the remote SEND endpoint; it is
	// meaningful only for the one-sided (RD) implementation, where RELEASE
	// notifies the sender that this address is reusable (§4.2).
	Remote uint64

	slot int // receive-slot or local-buffer index, impl-specific
}

// SendEndpoint is the SEND half of the communication endpoint (§4.2). All
// methods are thread-safe (callable from multiple worker Procs).
type SendEndpoint interface {
	// GetFree returns a free RDMA-registered transmission buffer, blocking
	// until one is available.
	GetFree(p *sim.Proc) (*Buf, error)
	// Send schedules transmission of b to every node in dest. The buffer
	// cannot be used after Send returns. Send may block for flow control.
	Send(p *sim.Proc, b *Buf, dest []int) error
	// Finish sends tails, the last data buffers of this endpoint's stream,
	// signals end-of-stream to every node in the cluster and flushes
	// in-flight traffic. Call it exactly once, after every other Send on
	// the endpoint returned. The RC designs tag the tails themselves as
	// Depleted and send a separate marker only to nodes no tail reached.
	Finish(p *sim.Proc, tails ...Tail) error
}

// Tail is a partially filled buffer a SHUFFLE thread still owes its
// transmission group when its input runs out.
type Tail struct {
	Buf  *Buf
	Dest []int
}

// RecvEndpoint is the RECEIVE half of the communication endpoint (§4.2).
type RecvEndpoint interface {
	// GetData blocks until a transmission buffer is available and returns
	// it. It returns (nil, nil) once every source has signalled Depleted,
	// and an error on unrecoverable transport problems.
	GetData(p *sim.Proc) (*Data, error)
	// Release returns d's buffer to the endpoint; for one-sided transports
	// it also notifies the remote endpoint that d.Remote is consumable.
	// Reposting or notifying can itself fail when the connection has
	// errored, so Release reports transport failures like GetData does.
	Release(p *sim.Proc, d *Data) error
}

// Provider supplies each node's communication endpoints. The RDMA Comm
// implements it; the MPI and IPoIB baselines provide their own endpoints so
// the same SHUFFLE/RECEIVE operators run over every transport.
type Provider interface {
	SendEndpoints(node int) []SendEndpoint
	RecvEndpoints(node int) []RecvEndpoint
}

// epGate serializes an endpoint's per-message verb calls (posting work
// requests and polling completions). Pythia's endpoints are thread-safe via
// an internal lock, and that lock is exactly the contention the paper's
// Table 1 classifies: Excessive when one endpoint with one QP is shared by
// every thread (SESQ), Moderate for a shared endpoint with per-peer QPs
// (SEMQ, whose larger messages amortize the lock), None for per-thread
// endpoints (ME).
type epGate struct{ mu *sim.Mutex }

func newEPGate(s *sim.Simulation, name string) epGate {
	return epGate{mu: s.NewMutex("ep " + name)}
}

func (g epGate) post(p *sim.Proc, qp *verbs.QP, wr verbs.SendWR) error {
	g.mu.Lock(p)
	err := qp.PostSend(p, wr)
	g.mu.Unlock(p)
	return err
}

func (g epGate) postRecv(p *sim.Proc, qp *verbs.QP, wr verbs.RecvWR) error {
	g.mu.Lock(p)
	err := qp.PostRecv(p, wr)
	g.mu.Unlock(p)
	return err
}

func (g epGate) poll(p *sim.Proc, cq *verbs.CQ, es []verbs.CQE) int {
	g.mu.Lock(p)
	n := cq.Poll(p, es)
	g.mu.Unlock(p)
	return n
}

// dataQueue is a small FIFO of decoded Data used by endpoints that can
// complete several buffers in one poll.
type dataQueue struct {
	items []*Data
}

func (q *dataQueue) push(d *Data) { q.items = append(q.items, d) }
func (q *dataQueue) pop() *Data {
	if len(q.items) == 0 {
		return nil
	}
	d := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return d
}
func (q *dataQueue) empty() bool { return len(q.items) == 0 }

// hashKeyFunc partitions rows across transmission groups.
type hashKeyFunc = func(sch *engine.Schema, row []byte) uint64
