// Package fabric models an InfiniBand-like lossless switched network in
// virtual time: per-link serialization, switch-port queueing, NIC
// work-request engines with a finite Queue-Pair state cache, MTU
// segmentation, out-of-order delivery on the datagram service, and fault
// injection.
//
// The model is event-driven and requires no simulated Procs: a transmit is a
// pure computation over two "busy-until" servers (the sender uplink and the
// receiver downlink), so a million-message shuffle costs only a few events
// per message.
package fabric

import (
	"time"

	"rshuffle/internal/sim"
)

// Service is the transport service type of a transmission, mirroring the
// InfiniBand transport services the paper uses.
type Service int

const (
	// RC is the Reliable Connection service: connection-oriented, in-order,
	// acknowledged delivery, messages up to 1 GiB.
	RC Service = iota
	// UD is the Unreliable Datagram service: connectionless, unacknowledged,
	// possibly out-of-order delivery, messages up to one MTU.
	UD
)

func (s Service) String() string {
	if s == RC {
		return "RC"
	}
	return "UD"
}

// Profile holds every calibrated constant of a cluster: link speed, NIC
// behaviour, and the host CPU cost model. The FDR and EDR constructors mirror
// the two clusters of the paper's evaluation.
type Profile struct {
	Name string

	// Link and switch.

	// LinkBandwidth is the usable wire rate of each host link in bytes/sec.
	LinkBandwidth float64
	// PropagationDelay is the one-way host-switch-host propagation time.
	PropagationDelay sim.Duration
	// SwitchDelay is the per-message switching latency.
	SwitchDelay sim.Duration
	// MTU is the maximum transmission unit; it caps UD message size.
	MTU int
	// HeaderRC and HeaderUD are per-MTU-packet wire overhead in bytes
	// (headers plus amortized link-level ACK traffic for RC).
	HeaderRC, HeaderUD int
	// MaxMsgRC caps RC message size (the InfiniBand spec allows up to 1 GiB).
	MaxMsgRC int

	// NIC.

	// WQEProcessing is the NIC-side fixed cost to fetch and execute one work
	// request.
	WQEProcessing sim.Duration
	// QPCacheSize is the number of Queue Pair states the NIC caches on-chip.
	QPCacheSize int
	// QPCacheMissPenalty is the extra NIC occupancy when a work request
	// touches a Queue Pair whose state must be fetched across PCIe.
	QPCacheMissPenalty sim.Duration
	// ReadRequestBytes is the wire size of a one-sided read request packet.
	ReadRequestBytes int
	// RNRRetryDelay is how long the sender NIC waits before retrying an RC
	// Send that found no posted Receive at the destination.
	RNRRetryDelay sim.Duration
	// RNRRetryCount bounds RNR retries, as ibv_modify_qp's rnr_retry does
	// on real HCAs. When exhausted the sender QP enters the Error state and
	// the send completes with an RNR-retry-exceeded status.
	RNRRetryCount int
	// RetryCount bounds transport-level retries of lost or unacknowledged
	// RC packets (ibv_modify_qp retry_cnt); exhaustion errors the QP.
	RetryCount int
	// TransportRetryDelay is how long the sender NIC waits for a missing
	// acknowledgment before retransmitting an RC message (the local ACK
	// timeout).
	TransportRetryDelay sim.Duration
	// UDReorderProb is the probability that a UD packet is delayed by a
	// random jitter of up to UDReorderJitter, which can reorder it with later
	// packets.
	UDReorderProb   float64
	UDReorderJitter sim.Duration

	// Lossy Ethernet tier (RoCEv2). All zero on the InfiniBand and legacy
	// lossless RoCE/iWARP profiles: Lossy == false keeps every congestion
	// branch disabled, so those profiles are bit-for-bit unchanged.

	// Lossy enables the Ethernet congestion model: per-egress-port buffer
	// occupancy with ECN marking, PFC pause frames propagated upstream, and
	// tail drop on overrun, instead of InfiniBand's lossless link-level
	// credits.
	Lossy bool
	// SwitchBufferBytes is the per-egress-port shared-buffer allotment; a
	// data packet that would overrun it is tail-dropped.
	SwitchBufferBytes int
	// PFCXoffBytes and PFCXonBytes are the pause hysteresis thresholds:
	// when occupancy crosses XOFF the port sends a pause frame upstream and
	// the arriving sender's uplink freezes until the port would have
	// drained back to XON.
	PFCXoffBytes, PFCXonBytes int
	// ECNMarkBytes is the marking threshold (below XOFF, as DCQCN requires):
	// data packets arriving above it are CE-marked and the receiver NIC
	// answers with a congestion notification packet toward the sender QP.
	ECNMarkBytes int

	// DCQCN enables the per-QP rate limiter in the NIC TX engine (CNP on
	// marked arrivals, multiplicative rate cut, additive/hyper recovery).
	DCQCN bool
	// CNPBytes is the payload size of one congestion notification packet
	// (it rides the control lane).
	CNPBytes int
	// CNPInterval is the minimum per-flow gap between generated CNPs (the
	// CNP timer of the DCQCN paper).
	CNPInterval sim.Duration
	// DCQCNAlphaG is the EWMA gain g of the congestion estimate alpha.
	DCQCNAlphaG float64
	// DCQCNRateAI is the additive-increase step in bytes/s applied to the
	// target rate each recovery period.
	DCQCNRateAI float64
	// DCQCNMinRate floors the per-QP rate so a cut flow keeps probing.
	DCQCNMinRate float64
	// DCQCNRecoveryPeriod is the rate/alpha recovery timer period.
	DCQCNRecoveryPeriod sim.Duration

	// Host CPU cost model.

	// PostCost is the CPU cost of one ibv_post_send/ibv_post_recv call.
	PostCost sim.Duration
	// PollCost is the CPU cost of one ibv_poll_cq call.
	PollCost sim.Duration
	// MemCopyPerByte is the per-byte CPU cost of copying between application
	// and RDMA-registered memory (also used by the engine's materialization).
	MemCopyPerByte float64 // ns per byte
	// HashPerTuple is the CPU cost of hashing one tuple during partitioning.
	HashPerTuple sim.Duration
	// TupleProcess is the per-tuple CPU cost of light operator work (scan
	// predicate evaluation, projection bookkeeping).
	TupleProcess sim.Duration

	// Setup costs (Fig. 12).

	// ConnSetupPerQP is the out-of-band cost to create, transition and
	// exchange one RC Queue Pair (or to create one UD QP and its address
	// handles).
	ConnSetupPerQP sim.Duration
	// ConnSetupBase is the fixed per-node cost to bootstrap the exchange.
	ConnSetupBase sim.Duration
	// MemRegBase and MemRegPerByte model ibv_reg_mr.
	MemRegBase    sim.Duration
	MemRegPerByte float64 // ns per byte

	// MPI cost model.

	// MPIPerMessage is the per-message library overhead of the era's
	// MVAPICH under MPI_THREAD_MULTIPLE (tag matching, request management,
	// lock handoffs), charged under the library lock. Together with the
	// rendezvous staging copy it calibrates the paper's measured MPI
	// throughput (roughly half the line rate on EDR, less on FDR).
	MPIPerMessage sim.Duration

	// TCP/IPoIB cost model.

	// TCPPerByte is the per-byte CPU cost of the TCP stack (copies, checksum);
	// it is what makes IPoIB CPU-bound.
	TCPPerByte float64 // ns per byte
	// TCPPerMessage is the per-send/recv syscall cost.
	TCPPerMessage sim.Duration

	// SupportsUD reports whether the transport offers an Unreliable
	// Datagram service. InfiniBand and RoCE do; iWARP does not, which rules
	// out the SQ/SR designs there.
	SupportsUD bool

	// SGEPerTuple is the per-scatter/gather-element cost of a zero-copy
	// send: without copying, every (non-contiguous) record needs its own
	// gather entry in the work request (cf. Kesavan et al., to copy or not
	// to copy).
	SGEPerTuple sim.Duration

	// Threads is the default worker-thread count per node on this cluster.
	Threads int
}

// FDR returns the profile of the paper's 56 Gb/s FDR InfiniBand cluster
// (dual-socket Xeon E5-2670v2, 10 cores/socket). Its NIC caches few QP
// states, so multi-QP designs degrade as the cluster grows.
func FDR() Profile {
	return Profile{
		Name:                "FDR",
		LinkBandwidth:       6.60e9, // ~6.15 GiB/s usable wire rate
		PropagationDelay:    600 * time.Nanosecond,
		SwitchDelay:         200 * time.Nanosecond,
		MTU:                 4096,
		HeaderRC:            38,
		HeaderUD:            66,
		MaxMsgRC:            1 << 30,
		WQEProcessing:       35 * time.Nanosecond,
		QPCacheSize:         48,
		QPCacheMissPenalty:  1200 * time.Nanosecond,
		ReadRequestBytes:    30,
		RNRRetryDelay:       12 * time.Microsecond,
		RNRRetryCount:       7,
		RetryCount:          7,
		TransportRetryDelay: 400 * time.Microsecond,
		UDReorderProb:       0.02,
		UDReorderJitter:     4 * time.Microsecond,
		PostCost:            340 * time.Nanosecond,
		PollCost:            90 * time.Nanosecond,
		MemCopyPerByte:      0.12,
		HashPerTuple:        4 * time.Nanosecond,
		TupleProcess:        3 * time.Nanosecond,
		ConnSetupPerQP:      1300 * time.Microsecond,
		ConnSetupBase:       2 * time.Millisecond,
		MemRegBase:          500 * time.Microsecond,
		MemRegPerByte:       0.015,
		MPIPerMessage:       2800 * time.Nanosecond,
		TCPPerByte:          0.42,
		TCPPerMessage:       1800 * time.Nanosecond,
		SupportsUD:          true,
		SGEPerTuple:         60 * time.Nanosecond,
		Threads:             10,
	}
}

// EDR returns the profile of the paper's 100 Gb/s EDR InfiniBand cluster
// (dual-socket Xeon E5-2680v4, 14 cores/socket). Its NIC caches many more QP
// states, so multi-QP designs keep scaling (cf. Kalia et al., FaSST).
func EDR() Profile {
	p := FDR()
	p.Name = "EDR"
	p.LinkBandwidth = 12.40e9 // ~11.5 GiB/s usable wire rate
	p.QPCacheSize = 1024
	p.QPCacheMissPenalty = 900 * time.Nanosecond
	p.WQEProcessing = 25 * time.Nanosecond
	p.PostCost = 280 * time.Nanosecond
	p.PollCost = 75 * time.Nanosecond
	p.MemCopyPerByte = 0.095
	p.HashPerTuple = 3 * time.Nanosecond
	p.TupleProcess = 2 * time.Nanosecond
	p.ConnSetupPerQP = 1250 * time.Microsecond
	p.MPIPerMessage = 350 * time.Nanosecond
	p.TCPPerByte = 0.28
	p.Threads = 14
	return p
}

// RoCE returns a profile for a 40 GbE RDMA-over-Converged-Ethernet network
// (the paper's second future-work item). The verbs interface is identical;
// the Ethernet fabric has lower usable bandwidth, higher switching latency,
// and Priority Flow Control makes it lossless like InfiniBand.
func RoCE() Profile {
	p := EDR()
	p.Name = "RoCE"
	p.LinkBandwidth = 4.45e9 // 40 GbE with Ethernet framing overheads
	p.PropagationDelay = 900 * time.Nanosecond
	p.SwitchDelay = 600 * time.Nanosecond
	p.HeaderRC = 58 // Ethernet+IP+UDP encapsulation (RoCEv2)
	p.HeaderUD = 86
	p.QPCacheSize = 512
	p.Threads = 14
	return p
}

// RoCEv2Lossy returns the RoCE profile with the lossless illusion removed:
// the same 40 GbE wire, but switch egress ports have finite shared buffers,
// congestion marks ECN below the PFC pause point, overruns tail-drop, and the
// NICs run a DCQCN-style per-QP rate limiter. Drops and pauses are emergent
// from traffic, not injected faults. Thresholds follow common shallow-buffer
// ToR tuning: mark early (96 KiB), pause late (192 KiB), drop only when the
// 288 KiB allotment is exhausted; XON at 128 KiB gives pause hysteresis.
func RoCEv2Lossy() Profile {
	p := RoCE()
	p.Name = "RoCEv2"
	p.Lossy = true
	p.SwitchBufferBytes = 288 << 10
	p.PFCXoffBytes = 192 << 10
	p.PFCXonBytes = 128 << 10
	p.ECNMarkBytes = 96 << 10
	p.DCQCN = true
	p.CNPBytes = 58
	p.CNPInterval = 50 * time.Microsecond
	// The DCQCN paper uses g = 1/256 with a dedicated 55 µs alpha timer; we
	// piggyback the alpha decay on the recovery timer, and on the few-ms
	// timescale of a whole shuffle alpha must relax within hundreds of
	// microseconds or every CNP keeps halving the rate. g = 1/16 gives the
	// same equilibrium shape at our timescale.
	p.DCQCNAlphaG = 1.0 / 16
	p.DCQCNRateAI = 80e6
	p.DCQCNMinRate = 60e6
	p.DCQCNRecoveryPeriod = 55 * time.Microsecond
	return p
}

// IWARP returns a profile for a 40 GbE iWARP (RDMA over offloaded TCP)
// network. iWARP offers no Unreliable Datagram service, so the SQ/SR
// designs cannot run; per-message costs are higher because of TCP/DDP
// framing in the NIC.
func IWARP() Profile {
	p := RoCE()
	p.Name = "iWARP"
	p.SupportsUD = false
	p.HeaderRC = 94 // Ethernet+IP+TCP+MPA/DDP/RDMAP framing
	p.WQEProcessing = 80 * time.Nanosecond
	p.PropagationDelay = 1500 * time.Nanosecond
	p.PostCost = 360 * time.Nanosecond
	return p
}

// Serialize returns the time to push n bytes onto a link at rate bw bytes/s.
func Serialize(n int, bw float64) sim.Duration {
	return sim.Duration(float64(n) / bw * 1e9)
}

// WireBytes returns the on-wire size of a message with the given payload
// under the given service, including per-packet header overhead.
func (p *Profile) WireBytes(payload int, svc Service) int {
	hdr := p.HeaderRC
	if svc == UD {
		hdr = p.HeaderUD
	}
	pkts := (payload + p.MTU - 1) / p.MTU
	if pkts == 0 {
		pkts = 1
	}
	return payload + pkts*hdr
}
