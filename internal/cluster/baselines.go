package cluster

import (
	"rshuffle/internal/ipoib"
	"rshuffle/internal/mpi"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// MPIProvider returns a factory for the MVAPICH-like baseline.
func MPIProvider() ProviderFactory {
	return func(p *sim.Proc, c *Cluster) shuffle.Provider {
		return mpi.Build(p, c.Devs)
	}
}

// IPoIBProvider returns a factory for the TCP-over-InfiniBand baseline.
func IPoIBProvider(cfg ipoib.Config) ProviderFactory {
	return func(p *sim.Proc, c *Cluster) shuffle.Provider {
		return ipoib.Build(p, c.Net, c.N, cfg)
	}
}

// setupReporter lets RunBench pick up bootstrap costs from any transport.
type setupReporter interface {
	Setup() (conn, reg sim.Duration)
}
