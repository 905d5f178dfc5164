// Package rshuffle is the public API of the RDMA-aware data shuffling
// library: a faithful reproduction of "Design and Evaluation of an
// RDMA-aware Data Shuffling Operator for Parallel Database Systems"
// (EuroSys 2017) over a deterministic virtual-time InfiniBand model.
//
// The building blocks:
//
//   - FDR/EDR hardware profiles and NewCluster boot a simulated cluster;
//   - Config/Algorithms select one of the paper's six shuffle designs
//     (SESQ/SR, MESQ/SR, SEMQ/SR, MEMQ/SR, SEMQ/RD, MEMQ/RD);
//   - BuildComm wires the communication endpoints, and the Shuffle/Receive
//     operators plug them into the vectorized pull-based engine;
//   - RunBench runs the paper's synthetic receive-throughput workload, and
//     the tpch subpackage (internal/tpch) runs TPC-H Q3, Q4 and Q10;
//   - MPI and IPoIB baseline transports implement the same Provider
//     interface, so the identical operators run over every transport.
//
// See examples/quickstart for a complete program.
package rshuffle

import (
	"rshuffle/internal/cluster"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// Hardware profiles of the paper's two clusters.
var (
	// FDR returns the 56 Gb/s FDR InfiniBand cluster profile.
	FDR = fabric.FDR
	// EDR returns the 100 Gb/s EDR InfiniBand cluster profile.
	EDR = fabric.EDR
)

// Re-exported core types; see the internal packages for full documentation.
type (
	// Profile holds a cluster's calibrated hardware and cost model.
	Profile = fabric.Profile
	// Cluster is one simulated cluster instance.
	Cluster = cluster.Cluster
	// Query is the body of a hand-wired query — transport setup, fragment
	// launch, result collection — that Cluster.Run drives.
	Query = cluster.Query
	// Config selects a point in the shuffle design space.
	Config = shuffle.Config
	// Algorithm names one of the paper's six designs.
	Algorithm = shuffle.Algorithm
	// Comm is a wired RDMA communication layer (implements Provider).
	Comm = shuffle.Comm
	// Provider supplies communication endpoints for the operators.
	Provider = shuffle.Provider
	// Groups is the transmission-group abstraction (repartition /
	// multicast / broadcast).
	Groups = shuffle.Groups
	// Shuffle is the data-transmitting operator (Algorithm 1).
	Shuffle = shuffle.Shuffle
	// Receive is the data-receiving operator (Algorithm 2).
	Receive = shuffle.Receive
	// BenchOpts configures the synthetic receive-throughput workload.
	BenchOpts = cluster.BenchOpts
	// BenchResult reports a workload run.
	BenchResult = cluster.BenchResult
	// ProviderFactory builds one transport layer for one shuffle.
	ProviderFactory = cluster.ProviderFactory
	// Proc is a simulated thread of execution.
	Proc = sim.Proc
	// Device is a node's verbs context.
	Device = verbs.Device
	// Operator is the vectorized pull-based operator interface.
	Operator = engine.Operator
	// Table is an in-memory row store.
	Table = engine.Table
	// Schema describes fixed-width rows.
	Schema = engine.Schema
)

// Transport implementation selectors.
const (
	// SQSR: one Queue Pair, Send/Receive over Unreliable Datagram.
	SQSR = shuffle.SQSR
	// MQSR: one Queue Pair per peer, Send/Receive over Reliable Connection.
	MQSR = shuffle.MQSR
	// MQRD: one Queue Pair per peer, one-sided RDMA Read.
	MQRD = shuffle.MQRD
	// MQWR: one Queue Pair per peer, one-sided RDMA Write (the paper's
	// first future-work item, implemented as an extension).
	MQWR = shuffle.MQWR
)

// Algorithms lists the six designs of the paper's Table 1;
// ExtendedAlgorithms adds the RDMA Write designs.
var (
	Algorithms         = shuffle.Algorithms
	ExtendedAlgorithms = shuffle.ExtendedAlgorithms
)

// NewCluster boots a simulated cluster of nodes over the profile; threads
// <= 0 selects the profile default.
func NewCluster(prof Profile, nodes, threads int, seed int64) *Cluster {
	return cluster.New(prof, nodes, threads, seed)
}

// BuildComm wires the endpoints of a shuffle configuration across the
// cluster; it must run inside a Proc (a Query's Setup step).
func BuildComm(p *Proc, c *Cluster, cfg Config) *Comm {
	return shuffle.Build(p, c.Devs, cfg, c.Threads)
}

// RDMA returns a transport factory for one of the paper's RDMA designs.
func RDMA(cfg Config) cluster.ProviderFactory { return cluster.RDMAProvider(cfg) }

// MPI returns the MVAPICH-like baseline transport factory.
func MPI() cluster.ProviderFactory { return cluster.MPIProvider() }

// IPoIB returns the TCP-over-InfiniBand baseline transport factory.
func IPoIB() cluster.ProviderFactory { return cluster.IPoIBProvider(ipoib.Config{}) }

// Repartition returns singleton transmission groups (hash partitioning).
func Repartition(n int) Groups { return shuffle.Repartition(n) }

// Broadcast returns a single group containing every node.
func Broadcast(n int) Groups { return shuffle.Broadcast(n) }

// KeyInt64Col returns a partitioning hash over an int64 column.
func KeyInt64Col(col int) func(sch *Schema, row []byte) uint64 {
	return shuffle.KeyInt64Col(col)
}

// SyntheticTable generates the paper's synthetic table R.
func SyntheticTable(seed int64, rows int) *Table {
	return cluster.SyntheticTable(seed, rows)
}
