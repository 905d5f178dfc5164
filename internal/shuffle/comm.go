package shuffle

import (
	"fmt"
	"sync/atomic"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
	"rshuffle/internal/verbs"
)

// NodeComm holds one node's communication endpoints for a shuffle: Send[k]
// pairs with Recv[k] on every other node (thread i uses endpoint i mod e,
// so matching indices talk to each other and the Θ(n·t²) any-core-to-any-
// core pattern the paper excludes never arises).
type NodeComm struct {
	Dev  *verbs.Device
	Send []SendEndpoint
	Recv []RecvEndpoint
}

// Comm is a fully wired cluster-wide communication layer for one shuffle
// operator pair, built by Build.
type Comm struct {
	Cfg     Config
	Threads int
	N       int
	Nodes   []*NodeComm

	// SetupTime is the virtual time spent creating QPs and exchanging
	// routing information (Fig. 12). RegTime is the additional memory
	// registration time, reported separately as in the paper.
	SetupTime sim.Duration
	RegTime   sim.Duration
	// QPsPerOperator is the number of Queue Pairs one send operator uses
	// (the x-axis of Fig. 11).
	QPsPerOperator int
	// SendMemoryPerNode is the RDMA-registered memory of one node's send
	// operator in bytes (Fig. 9b).
	SendMemoryPerNode int64
}

// threadsPerEndpoint returns how many worker threads share each endpoint.
func threadsPerEndpoint(threads, endpoints int) int {
	tpe := threads / endpoints
	if threads%endpoints != 0 {
		tpe++
	}
	if tpe < 1 {
		tpe = 1
	}
	return tpe
}

// Build creates and wires the endpoints of every node for the given
// configuration. It must run inside a Proc; it charges p the connection
// setup cost of one node (setup proceeds in parallel across nodes, and
// nodes are symmetric).
func Build(p *sim.Proc, devs []*verbs.Device, cfg Config, threads int) *Comm {
	cfg = cfg.Defaulted()
	n := len(devs)
	e := cfg.Endpoints
	tpe := threadsPerEndpoint(threads, e)
	c := &Comm{Cfg: cfg, Threads: threads, N: n, Nodes: make([]*NodeComm, n)}

	regBefore := make([]int64, n)
	for a, d := range devs {
		regBefore[a] = d.RegisteredBytes()
		c.Nodes[a] = &NodeComm{Dev: d, Send: make([]SendEndpoint, e), Recv: make([]RecvEndpoint, e)}
	}
	prof := &devs[0].Network().Prof

	for k := 0; k < e; k++ {
		// sc and rc collect the RC designs' endpoint cores for connectRC.
		sc, rc := make([]*endpoint, n), make([]*endpoint, n)
		switch cfg.Impl {
		case MQSR:
			ss := make([]*srRCSend, n)
			rr := make([]*srRCRecv, n)
			for a := 0; a < n; a++ {
				ss[a] = newSRRCSend(devs[a], cfg, n, tpe)
				rr[a] = newSRRCRecv(devs[a], cfg, n, tpe)
				sc[a], rc[a] = &ss[a].endpoint, &rr[a].endpoint
			}
			connectRC(sc, rc)
			for a := 0; a < n; a++ {
				must(rr[a].prime(p))
				// The initial grant travels with the out-of-band connection
				// exchange: preset each sender's credit words.
				for b := 0; b < n; b++ {
					rr[a].creditWin[b] = remoteWin{rkey: ss[b].creditMR.RKey, base: 8 * a}
					verbs.PutUint64(ss[b].creditMR.Bytes(8*a, 8), rr[a].creditIssued[b])
				}
				c.Nodes[a].Send[k] = ss[a]
				c.Nodes[a].Recv[k] = rr[a]
			}
			c.SendMemoryPerNode += ss[0].sendMemory()
		case SQSR:
			ss := make([]*srUDSend, n)
			rr := make([]*srUDRecv, n)
			for a := 0; a < n; a++ {
				ss[a] = newSRUDSend(devs[a], cfg, n, tpe)
				rr[a] = newSRUDRecv(devs[a], cfg, n, tpe)
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					ss[a].ahs[b] = verbs.AH{Node: b, QPN: rr[b].qp.QPN()}
					rr[a].ahs[b] = verbs.AH{Node: b, QPN: ss[b].qp.QPN()}
				}
			}
			if cfg.HWMulticast {
				mgid := nextMGID()
				for a := 0; a < n; a++ {
					ss[a].hwmc = true
					ss[a].mgid = mgid
					must(devs[a].AttachMulticast(rr[a].qp, mgid))
				}
			}
			for a := 0; a < n; a++ {
				must(ss[a].primeSend(p))
				must(rr[a].prime(p))
				for b := 0; b < n; b++ {
					ss[b].credit[a] = rr[a].creditIssued[b]
				}
				c.Nodes[a].Send[k] = ss[a]
				c.Nodes[a].Recv[k] = rr[a]
			}
			c.SendMemoryPerNode += ss[0].sendMemory()
		case MQWR:
			ss := make([]*wrRCSend, n)
			rr := make([]*wrRCRecv, n)
			for a := 0; a < n; a++ {
				rr[a] = newWRRCRecv(devs[a], cfg, n, tpe)
				rc[a] = &rr[a].endpoint
			}
			for a := 0; a < n; a++ {
				ss[a] = newWRRCSend(devs[a], cfg, n, tpe, rr[0].slotOut.cap)
				sc[a] = &ss[a].endpoint
			}
			connectRC(sc, rc)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					ss[a].slotWin[b] = remoteWin{rkey: rr[b].slotMR.RKey}
					ss[a].validOut.win[b] = rr[b].validArr.window(a)
					rr[b].slotOut.win[a] = ss[a].slotArr.window(b)
				}
			}
			// Initial grants travel with the out-of-band setup: receiver b
			// hands its per-source slot partitions to each sender directly.
			for b := 0; b < n; b++ {
				perSrc := rr[b].perSrc
				for a := 0; a < n; a++ {
					for i := 0; i < perSrc; i++ {
						slot := (a*perSrc + i) * cfg.BufSize
						rr[b].slotOut.preset(a, &ss[a].slotArr, b, packSlot(slot, 0, false))
					}
				}
			}
			for a := 0; a < n; a++ {
				c.Nodes[a].Send[k] = ss[a]
				c.Nodes[a].Recv[k] = rr[a]
			}
			c.SendMemoryPerNode += ss[0].sendMemory()
		case MQRD:
			ss := make([]*rdRCSend, n)
			rr := make([]*rdRCRecv, n)
			for a := 0; a < n; a++ {
				ss[a] = newRDRCSend(devs[a], cfg, n, tpe)
				sc[a] = &ss[a].endpoint
			}
			for a := 0; a < n; a++ {
				rr[a] = newRDRCRecv(devs[a], cfg, n, tpe, ss[a].freeArr.cap)
				rc[a] = &rr[a].endpoint
			}
			connectRC(sc, rc)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					ss[a].validOut.win[b] = rr[b].validArr.window(a)
					rr[b].freeOut.win[a] = ss[a].freeArr.window(b)
					rr[b].dataWin[a] = remoteWin{rkey: ss[a].mr.RKey}
				}
				c.Nodes[a].Send[k] = ss[a]
				c.Nodes[a].Recv[k] = rr[a]
			}
			c.SendMemoryPerNode += ss[0].sendMemory()
		}
	}

	// Connection-manager wiring: when the failure detector declares a peer
	// dead (Device.NotifyPeerDown), drain then close every endpoint of this
	// node that involves it, so blocked SHUFFLE/RECEIVE calls terminate with
	// ErrPeerFailed. Handlers run in scheduler context and must not block.
	for a := 0; a < n; a++ {
		node := c.Nodes[a]
		self := a
		node.Dev.OnPeerDown(func(peer int) {
			// The connection manager routes the peer-down verdict to the
			// node, so the node's trace shard is the right emission context.
			tr := node.Dev.Network().TracerAt(self)
			now := node.Dev.Sim().Now()
			tr.Instant(now, telemetry.EvDrainPeer, int32(self), 0, int64(peer), 0)
			for _, s := range node.Send {
				if pd, ok := s.(PeerDrainer); ok {
					pd.DrainPeer(peer)
				}
			}
			for _, r := range node.Recv {
				if pd, ok := r.(PeerDrainer); ok {
					pd.DrainPeer(peer)
				}
			}
			tr.Instant(now, telemetry.EvClosePeer, int32(self), 0, int64(peer), 0)
			for _, s := range node.Send {
				if pd, ok := s.(PeerDrainer); ok {
					pd.ClosePeer(peer)
				}
			}
			for _, r := range node.Recv {
				if pd, ok := r.(PeerDrainer); ok {
					pd.ClosePeer(peer)
				}
			}
		})
	}

	// QP census (one side's send operator; Fig. 11 / Table 1).
	switch cfg.Impl {
	case SQSR:
		c.QPsPerOperator = e
	default:
		c.QPsPerOperator = e * n
	}

	// Setup cost: QP creation/transition plus the out-of-band exchange is
	// charged per QP (the paper's Fig. 12); memory registration is charged
	// and reported separately, as the paper finds it negligible (<5 ms).
	// Nodes set up in parallel, so one node's cost is the elapsed time.
	qpsPerNode := 2 * c.QPsPerOperator // send side + receive side
	regBytes := devs[0].RegisteredBytes() - regBefore[0]
	c.SetupTime = prof.ConnSetupBase + sim.Duration(qpsPerNode)*prof.ConnSetupPerQP
	c.RegTime = prof.MemRegBase + sim.Duration(float64(regBytes)*prof.MemRegPerByte)
	p.Sleep(c.SetupTime + c.RegTime)

	return c
}

// SendEndpoints implements Provider.
func (c *Comm) SendEndpoints(node int) []SendEndpoint { return c.Nodes[node].Send }

// RecvEndpoints implements Provider.
func (c *Comm) RecvEndpoints(node int) []RecvEndpoint { return c.Nodes[node].Recv }

// mgidSeq hands out process-unique multicast group ids; the value never
// affects timing, only identity. It is atomic because independent
// simulations may build communication layers concurrently (the parallel
// experiment driver); within one simulation the ids are still assigned in
// deterministic order.
var mgidSeq atomic.Uint32

func nextMGID() uint32 { return mgidSeq.Add(1) }

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("shuffle: wiring failed: %v", err))
	}
}

// traceCredit records one flow-control write-back (RC credit write, UD
// credit datagram, read-based free-buffer return, or write-based slot
// grant) against the node that issued it. A is the peer the grant targets,
// B the granted value (absolute credit or buffer offset).
func traceCredit(d *verbs.Device, peer int, value int64) {
	net := d.Network()
	net.TracerAt(d.Node()).Instant(d.Sim().Now(), telemetry.EvCredit,
		int32(d.Node()), 0, int64(peer), value)
}
