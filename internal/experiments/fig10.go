package experiments

import (
	"fmt"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
)

// ScaleOutNodes is the Fig. 10 cluster-size sweep.
var ScaleOutNodes = []int{2, 4, 8, 16}

// fig10 reproduces Figure 10: per-node receive throughput of the six RDMA
// designs plus MPI and IPoIB as the cluster grows, for the repartition and
// broadcast patterns on both FDR and EDR.
func fig10() (x exhibit) {
	subs := []string{"(a)", "(b)", "(c)", "(d)"}
	for _, prof := range []fabric.Profile{fabric.FDR(), fabric.EDR()} {
		for _, pattern := range []string{"repartition", "broadcast"} {
			t := &Table{
				ID:    "Figure 10" + subs[len(x.tables)],
				Title: fmt.Sprintf("%s throughput vs cluster size, %s", pattern, prof.Name),
				Unit:  "GiB/s per node",
			}
			for _, n := range ScaleOutNodes {
				t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
			}
			groupsFor := func(n int) shuffle.Groups {
				if pattern == "broadcast" {
					return shuffle.Broadcast(n)
				}
				return shuffle.Repartition(n)
			}
			for _, a := range shuffle.Algorithms {
				row := t.series(a.Name)
				for i, n := range ScaleOutNodes {
					x.cells = append(x.cells, cell{key: key("fig10", prof.Name, pattern, a.Name, t.Cols[i]),
						prof: prof, nodes: n, cfg: a.Config(prof.Threads), seedOff: int64(200 + i),
						bench: cluster.BenchOpts{Groups: groupsFor(n)}, out: []*float64{&row[i]}})
				}
			}
			for _, base := range []struct {
				name string
				f    cluster.ProviderFactory
			}{
				{"MPI", cluster.MPIProvider()},
				{"IPoIB", cluster.IPoIBProvider(ipoib.Config{})},
			} {
				row := t.series(base.name)
				for i, n := range ScaleOutNodes {
					x.cells = append(x.cells, cell{key: key("fig10", prof.Name, pattern, base.name, t.Cols[i]),
						prof: prof, nodes: n, seedOff: int64(300 + i),
						bench: cluster.BenchOpts{Factory: base.f, Groups: groupsFor(n)}, out: []*float64{&row[i]}})
				}
			}
			if pattern == "repartition" {
				x.cells = append(x.cells, cell{key: key("fig10", prof.Name, pattern, "qperf"),
					prof: prof, body: qperfLine, out: slots(t.series("qperf"))})
				t.Notes = append(t.Notes, "qperf measures a single pair and is shown as a constant line")
			}
			x.tables = append(x.tables, t)
		}
	}
	return x
}

// fig11 reproduces Figure 11: receive throughput on 16 EDR nodes as the
// number of Queue Pairs per operator varies, by sweeping the endpoint count
// e for each implementation (SE = 1, ME = t, and intermediate values).
func fig11() (x exhibit) {
	prof := fabric.EDR()
	endpoints := []int{1, 2, 7, 14}
	t := &Table{
		ID:    "Figure 11",
		Title: "throughput vs Queue Pairs per operator, 16 nodes, EDR (repartition)",
		Unit:  "GiB/s per node",
	}
	impls := []struct {
		name string
		impl shuffle.Impl
	}{
		{"SQ/SR", shuffle.SQSR},
		{"MQ/SR", shuffle.MQSR},
		{"MQ/RD", shuffle.MQRD},
	}
	for _, e := range endpoints {
		t.Cols = append(t.Cols, fmt.Sprintf("e=%d", e))
	}
	for _, im := range impls {
		row, qps := t.series(im.name), t.series(im.name+" QPs")
		for i, e := range endpoints {
			x.cells = append(x.cells, cell{key: key("fig11", im.name, t.Cols[i]),
				prof: prof, nodes: 16, cfg: shuffle.Config{Impl: im.impl, Endpoints: e}, seedOff: int64(400 + i),
				read: gibpsAndQPs, out: []*float64{&row[i], &qps[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"QPs per operator: e for SQ, e*n for MQ — the paper's x-axis values 1,2,7,14,16,32,112,224",
		"paper: MESQ/SR reaches higher throughput with far fewer Queue Pairs than the MQ designs")
	x.tables = []*Table{t}
	return x
}

// fig12 reproduces Figure 12: time to build the RDMA connections as the
// cluster size grows, per algorithm.
func fig12() (x exhibit) {
	prof := fabric.EDR()
	sizes := []int{2, 4, 6, 8, 10, 12, 14, 16}
	t := &Table{
		ID:    "Figure 12",
		Title: "time to build RDMA connections vs cluster size, EDR",
		Unit:  "ms",
	}
	for _, n := range sizes {
		t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
	}
	for _, a := range shuffle.Algorithms {
		row := t.series(a.Name)
		for i, n := range sizes {
			x.cells = append(x.cells, cell{key: key("fig12", a.Name, t.Cols[i]),
				prof: prof, nodes: n, cfg: a.Config(prof.Threads), body: setupMs, out: []*float64{&row[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"paper: ME algorithms connect more endpoints than SE; MQ grows linearly with cluster size,",
		"SQ stays flat — MESQ/SR stays under 40 ms; memory (de)registration is separate and <5 ms")
	x.tables = []*Table{t}
	return x
}

// gibpsAndQPs reads a Fig. 11 cell: throughput and QPs per operator.
func gibpsAndQPs(_ *cell, r *cluster.BenchResult, _ *cluster.Cluster, _ bool) []float64 {
	return []float64{r.GiBps(), float64(r.QPsPerOperator)}
}

// setupMs is the body of a Fig. 12 cell: connection setup time in ms.
func setupMs(o Options, c *cell) ([]float64, error) {
	comm, err := o.buildOnly(c)
	if err != nil {
		return nil, err
	}
	return []float64{comm.SetupTime.Seconds() * 1e3}, nil
}
