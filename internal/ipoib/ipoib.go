// Package ipoib models TCP/IP-over-InfiniBand socket communication: the
// performance a database gets from a network upgrade with no software
// changes. The TCP stack's per-byte costs (copies, checksums, interrupts)
// serialize on a per-node kernel path, which makes IPoIB CPU-bound at a
// fraction of the native link rate — the paper measures roughly 3x below
// the RDMA designs.
//
// The package implements shuffle.Provider so the same SHUFFLE/RECEIVE
// operators run over sockets, with send()/recv() semantics: reliable,
// ordered byte streams per connection and kernel-buffer flow control.
package ipoib

import (
	"fmt"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// Config tunes the socket layer.
type Config struct {
	// BufSize is the application send-buffer size.
	BufSize int
	// WindowBytes is the per-connection kernel receive buffer (TCP window).
	WindowBytes int
	// StallTimeout bounds blocking calls.
	StallTimeout sim.Duration
}

// Defaulted fills zero fields.
func (c Config) Defaulted() Config {
	if c.BufSize <= 0 {
		c.BufSize = 64 << 10
	}
	if c.WindowBytes <= 0 {
		c.WindowBytes = 1 << 20
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	return c
}

const hdrSize = 8

// Net is a mesh of TCP connections across the cluster; it implements
// shuffle.Provider with one socket endpoint per node.
type Net struct {
	Cfg   Config
	hosts []*host
	setup sim.Duration
}

// SendEndpoints implements shuffle.Provider.
func (n *Net) SendEndpoints(node int) []shuffle.SendEndpoint {
	return []shuffle.SendEndpoint{n.hosts[node]}
}

// RecvEndpoints implements shuffle.Provider.
func (n *Net) RecvEndpoints(node int) []shuffle.RecvEndpoint {
	return []shuffle.RecvEndpoint{n.hosts[node]}
}

// Setup reports connection setup time (TCP handshakes are cheap; this is
// what makes IPoIB attractive for short queries).
func (n *Net) Setup() (conn, reg sim.Duration) { return n.setup, 0 }

// segment is one in-flight send()'s worth of bytes.
type segment struct {
	src      int
	payload  []byte
	depleted bool
}

// host is one node's socket endpoint (both halves).
type host struct {
	nw   *Net
	net  *fabric.Network
	cfg  Config
	n    int
	node int

	// kernel serializes the node's TCP stack work: every byte sent or
	// received is charged here, which caps IPoIB throughput well below the
	// link rate.
	kernel *sim.Mutex

	// outWin tracks unacknowledged bytes per destination connection.
	outWin  []int
	winCond *sim.Cond

	inbox    []*segment
	inCond   *sim.Cond
	depleted int

	appFree [][]byte
}

func newHost(net *fabric.Network, cfg Config, n, node int) *host {
	// All three primitives live on the node's own partition sim: waking a
	// waiter (kernel handoff, window ack, inbox broadcast) pushes a dispatch
	// event onto the primitive's sim, and the Deliver callbacks below run on
	// the destination partition — homing them on the control sim would leak
	// events across partitions on a parallel (-lps) run.
	hsim := net.SimAt(node)
	h := &host{
		net: net, cfg: cfg, n: n, node: node,
		kernel:  hsim.NewMutex(fmt.Sprintf("ipoib-kernel@%d", node)),
		outWin:  make([]int, n),
		winCond: hsim.NewCond(fmt.Sprintf("ipoib-win@%d", node)),
		inCond:  hsim.NewCond(fmt.Sprintf("ipoib-in@%d", node)),
	}
	for i := 0; i < 2*n; i++ {
		h.appFree = append(h.appFree, make([]byte, cfg.BufSize))
	}
	return h
}

// Build creates the socket mesh. Connection setup is three TCP handshakes'
// worth per peer — orders of magnitude cheaper than RDMA setup.
func Build(p *sim.Proc, net *fabric.Network, nodes int, cfg Config) *Net {
	cfg = cfg.Defaulted()
	nw := &Net{Cfg: cfg, hosts: make([]*host, nodes)}
	for a := 0; a < nodes; a++ {
		nw.hosts[a] = newHost(net, cfg, nodes, a)
		nw.hosts[a].nw = nw
	}
	rtt := 2 * (net.Prof.PropagationDelay + net.Prof.SwitchDelay)
	nw.setup = sim.Duration(nodes) * (3*rtt + 20*time.Microsecond)
	p.Sleep(nw.setup)
	return nw
}

func (h *host) prof() *fabric.Profile { return &h.net.Prof }

// perByte is the TCP stack CPU cost per byte on this cluster. It is charged
// once on each side, under the kernel lock.
func (h *host) perByte() float64 { return h.prof().TCPPerByte / 2 }

// GetFree implements shuffle.SendEndpoint.
func (h *host) GetFree(p *sim.Proc) (*shuffle.Buf, error) {
	h.kernel.Lock(p)
	var buf []byte
	if len(h.appFree) > 0 {
		buf = h.appFree[len(h.appFree)-1]
		h.appFree = h.appFree[:len(h.appFree)-1]
	} else {
		buf = make([]byte, h.cfg.BufSize)
	}
	h.kernel.Unlock(p)
	return &shuffle.Buf{Data: buf}, nil
}

// Send implements shuffle.SendEndpoint: one send() per group member.
func (h *host) Send(p *sim.Proc, b *shuffle.Buf, dest []int) error {
	err := shuffle.FanOut(h.node, dest, func(d int) error {
		return h.sendOne(p, d, b.Data[:b.Len], false)
	})
	if err != nil {
		return err
	}
	h.kernel.Lock(p)
	h.appFree = append(h.appFree, b.Data[:cap(b.Data)])
	h.kernel.Unlock(p)
	return nil
}

func (h *host) sendOne(p *sim.Proc, dest int, payload []byte, depleted bool) error {
	// Flow control: block while the connection's window is full.
	var waited sim.Duration
	for {
		h.kernel.Lock(p)
		if h.outWin[dest]+len(payload)+hdrSize <= h.cfg.WindowBytes {
			break
		}
		h.kernel.Unlock(p)
		if !h.winCond.WaitTimeout(p, 200*time.Microsecond) {
			if waited += 200 * time.Microsecond; waited > h.cfg.StallTimeout {
				return fmt.Errorf("%w: TCP window to node %d", shuffle.ErrStalled, dest)
			}
		} else {
			waited = 0
		}
	}
	size := len(payload) + hdrSize
	h.outWin[dest] += size
	// The send() syscall: segmentation, checksumming, and the copy into
	// kernel buffers, all on this node's stack.
	p.Sleep(h.prof().TCPPerMessage + sim.Duration(float64(size)*h.perByte()))
	h.kernel.Unlock(p)

	seg := &segment{src: h.node, payload: append([]byte(nil), payload...), depleted: depleted}
	peer := h.peer(dest)
	h.net.Transmit(&fabric.Message{
		From: h.node, To: dest,
		FromQP: h.connKey(h.node, dest), ToQP: h.connKey(h.node, dest),
		Payload: size, Service: fabric.RC,
		Deliver: func(at sim.Time) {
			peer.inbox = append(peer.inbox, seg)
			peer.inCond.Broadcast()
		},
	})
	return nil
}

func (h *host) peer(dest int) *host { return h.nw.hosts[dest] }

func (h *host) connKey(a, b int) uint64 { return 1<<40 | uint64(a)<<16 | uint64(b) }

// ackWindow releases window space at the sender after the receiving
// application consumed the bytes.
func (h *host) ackWindow(src, size int) {
	peer := h.nw.hosts[src]
	h.net.Transmit(&fabric.Message{
		From: h.node, To: src,
		FromQP: h.connKey(src, h.node) | 1<<41, ToQP: h.connKey(src, h.node) | 1<<41,
		Payload: 40, Service: fabric.RC,
		Deliver: func(at sim.Time) {
			peer.outWin[h.node] -= size
			peer.winCond.Broadcast()
		},
	})
}

// Finish implements shuffle.SendEndpoint: after the tails, a zero-length
// marker closes each stream (TCP is ordered, so the marker arriving means
// all data arrived).
func (h *host) Finish(p *sim.Proc, tails ...shuffle.Tail) error {
	for _, t := range tails {
		if err := h.Send(p, t.Buf, t.Dest); err != nil {
			return err
		}
	}
	return shuffle.FanOut(h.node, shuffle.Broadcast(h.n)[0], func(d int) error {
		return h.sendOne(p, d, nil, true)
	})
}

// GetData implements shuffle.RecvEndpoint: select() on all sockets, then
// recv() under the kernel lock.
func (h *host) GetData(p *sim.Proc) (*shuffle.Data, error) {
	var waited sim.Duration
	for {
		h.kernel.Lock(p)
		if len(h.inbox) > 0 {
			seg := h.inbox[0]
			h.inbox = h.inbox[1:]
			if seg.depleted {
				h.depleted++
				h.ackWindow(seg.src, hdrSize)
				h.kernel.Unlock(p)
				continue
			}
			// recv(): copy from kernel buffers into application memory.
			p.Sleep(h.prof().TCPPerMessage + sim.Duration(float64(len(seg.payload))*h.perByte()))
			h.ackWindow(seg.src, len(seg.payload)+hdrSize)
			h.kernel.Unlock(p)
			return &shuffle.Data{Src: seg.src, Payload: seg.payload}, nil
		}
		done := h.depleted >= h.n
		h.kernel.Unlock(p)
		if done {
			return nil, nil
		}
		if !h.inCond.WaitTimeout(p, 200*time.Microsecond) {
			if waited += 200 * time.Microsecond; waited > h.cfg.StallTimeout {
				return nil, fmt.Errorf("%w: recv on node %d", shuffle.ErrStalled, h.node)
			}
		} else {
			waited = 0
		}
	}
}

// Release implements shuffle.RecvEndpoint; segment buffers are
// garbage-collected, so nothing to do.
func (h *host) Release(p *sim.Proc, d *shuffle.Data) error { return nil }
