package experiments

// Experiment names one reproducible exhibit.
type Experiment struct {
	Name string // CLI name, e.g. "fig10"
	What string
	plan func() exhibit
}

// All lists every exhibit of the paper's evaluation in order.
var All = []Experiment{
	{"table1", "design-space summary and Queue Pair census", table1},
	{"fig08", "credit write-back frequency sweep (FDR and EDR)", fig08},
	{"fig09", "message size: throughput and registered memory", fig09},
	{"fig10", "scale-out: repartition and broadcast on FDR and EDR", fig10},
	{"fig11", "effect of the number of Queue Pairs", fig11},
	{"fig12", "RDMA connection setup time", fig12},
	{"fig13", "compute-intensive receiving fragments", fig13},
	{"fig14a", "TPC-H Q4 under a network upgrade", fig14a},
	{"fig14bcd", "TPC-H Q4/Q3/Q10 scale-out", fig14bcd},
	{"ext-write", "future work: RDMA Write endpoint", extWrite},
	{"ext-fabrics", "future work: RoCE and iWARP fabrics", extFabrics},
	{"ext-mcast", "future work: native multicast broadcast", extMulticast},
	{"ext-zerocopy", "ablation: copy vs zero-copy sends", extZeroCopy},
	{"ext-qpcache", "ablation: NIC QP-state cache capacity", extQPCache},
	{"ext-profile", "profiling: worker busy vs blocked fractions (§5.1.3)", extProfile},
	{"ext-skew", "study: Zipf-skewed partitioning keys", extSkew},
	{"ext-lossy", "extension: lossy RoCEv2 tier (PFC/ECN/DCQCN)", extLossy},
	{"ext-dag", "extension: shuffle-aware DAG multi-stage plans (per-edge transports)", extDag},
}

// Find returns the named experiment, or nil.
func Find(name string) *Experiment {
	for i := range All {
		if All[i].Name == name {
			return &All[i]
		}
	}
	return nil
}
