package experiments

import (
	"fmt"
	"math"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// The extension experiments implement the paper's §7 future-work agenda:
// an RDMA Write endpoint, RoCE and iWARP fabrics, and native InfiniBand
// multicast for MESQ/SR broadcast — plus the copy-vs-zero-copy ablation the
// paper discusses in §4.3.1 (citing Kesavan et al.).

// ExtWrite compares the one-sided designs: the paper's RDMA Read endpoints
// against the future-work RDMA Write endpoints, for both patterns on EDR.
func ExtWrite(o Options) ([]*Table, error) {
	prof := fabric.EDR()
	algos := []shuffle.Algorithm{
		{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true},
		{Name: "SEMQ/RD", Impl: shuffle.MQRD, ME: false},
		{Name: "MEMQ/WR", Impl: shuffle.MQWR, ME: true},
		{Name: "SEMQ/WR", Impl: shuffle.MQWR, ME: false},
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
	}
	var out []*Table
	cs := cells{o: o}
	for _, pattern := range []string{"repartition", "broadcast"} {
		t := &Table{
			ID:    "Extension: RDMA Write endpoint (" + pattern + ")",
			Title: "one-sided designs on EDR — the paper's first future-work item",
			Unit:  "GiB/s per node",
		}
		nodesSweep := []int{4, 8, 16}
		for _, n := range nodesSweep {
			t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
		}
		for _, a := range algos {
			row := Row{Name: a.Name, Vals: make([]float64, len(nodesSweep))}
			for i, n := range nodesSweep {
				cs.add(func() error {
					groups := shuffle.Repartition(n)
					if pattern == "broadcast" {
						groups = shuffle.Broadcast(n)
					}
					res, err := o.runThroughput(prof, a.Config(prof.Threads), n, groups, int64(700+i))
					if err != nil {
						return fmt.Errorf("%s %s %dn: %w", a.Name, pattern, n, err)
					}
					row.Vals[i] = res.GiBps()
					return nil
				})
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"WR frees send buffers on local completions, so broadcast does not starve for buffer",
			"returns the way RD does (§5.1.3); data+announcement ride one ordered QP")
		out = append(out, t)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// ExtFabrics runs the designs on RoCE and iWARP (the second future-work
// item). iWARP offers no Unreliable Datagram service, so the SQ/SR designs
// cannot run there.
func ExtFabrics(o Options) (*Table, error) {
	t := &Table{
		ID:    "Extension: RoCE and iWARP",
		Title: "repartition throughput on Ethernet RDMA fabrics, 8 nodes",
		Unit:  "GiB/s per node",
		Cols:  []string{"RoCE", "iWARP"},
	}
	profs := []fabric.Profile{fabric.RoCE(), fabric.IWARP()}
	cs := cells{o: o}
	for _, a := range shuffle.Algorithms {
		row := Row{Name: a.Name, Vals: make([]float64, len(profs))}
		for i, prof := range profs {
			if a.Impl == shuffle.SQSR && !prof.SupportsUD {
				row.Vals[i] = math.NaN()
				continue
			}
			cs.add(func() error {
				res, err := o.runThroughput(prof, a.Config(prof.Threads), 8, nil, int64(800+i))
				if err != nil {
					return fmt.Errorf("%s on %s: %w", a.Name, prof.Name, err)
				}
				row.Vals[i] = res.GiBps()
				return nil
			})
		}
		t.Rows = append(t.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"iWARP has no UD service: the SQ/SR designs (including the paper's winner MESQ/SR)",
		"cannot run there, leaving only the connection-oriented designs")
	return t, nil
}

// ExtMulticast measures MESQ/SR broadcast with native InfiniBand hardware
// multicast (the third future-work item): one work request and one uplink
// serialization per buffer, replicated by the switch.
func ExtMulticast(o Options) (*Table, error) {
	prof := fabric.EDR()
	nodesSweep := []int{4, 8, 16}
	t := &Table{
		ID:    "Extension: native multicast for MESQ/SR broadcast",
		Title: "broadcast with hardware multicast vs software loops, EDR",
		Unit:  "GiB/s per node (tx msgs per node in parentheses rows)",
	}
	for _, n := range nodesSweep {
		t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
	}
	cs := cells{o: o}
	for _, hw := range []bool{false, true} {
		name := "MESQ/SR"
		if hw {
			name = "MESQ/SR+mcast"
		}
		row := Row{Name: name, Vals: make([]float64, len(nodesSweep))}
		tx := Row{Name: name + " txmsgs", Vals: make([]float64, len(nodesSweep))}
		for i, n := range nodesSweep {
			cs.add(func() error {
				cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: prof.Threads, HWMulticast: hw}
				rows, passes := o.workloadFor(cfg, prof, n, shuffle.Broadcast(n))
				res, c, err := o.runBench(prof, n, 0, int64(900+i), cluster.BenchOpts{
					Factory: cluster.RDMAProvider(cfg), RowsPerNode: rows, Passes: passes,
					Groups: shuffle.Broadcast(n),
				})
				if err != nil {
					return err
				}
				row.Vals[i] = res.GiBps()
				tx.Vals[i] = float64(c.Net.Stats(0).TxMessages)
				return nil
			})
		}
		t.Rows = append(t.Rows, row, tx)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the paper hypothesizes multicast reduces CPU cost since MESQ/SR already runs at line",
		"rate: transmitted messages (and send WQEs) drop by ~the cluster size")
	return t, nil
}

// ExtZeroCopy reproduces the §4.3.1 design discussion: copying tuples into
// registered buffers versus zero-copy sends that need one scatter/gather
// element per record. Small records favour copying (Kesavan et al.).
func ExtZeroCopy(o Options) (*Table, error) {
	prof := fabric.EDR()
	widths := []int{16, 64, 144, 272, 528}
	t := &Table{
		ID:    "Extension: copy vs zero-copy sends",
		Title: "MEMQ/SR repartition throughput by record width, 8 nodes, EDR",
		Unit:  "GiB/s per node",
	}
	for _, w := range widths {
		t.Cols = append(t.Cols, fmt.Sprintf("%dB", w))
	}
	cs := cells{o: o}
	for _, zc := range []bool{false, true} {
		name := "copy"
		if zc {
			name = "zero-copy"
		}
		row := Row{Name: name, Vals: make([]float64, len(widths))}
		for i, w := range widths {
			cs.add(func() error {
				cfg := shuffle.Config{Impl: shuffle.MQSR, Endpoints: prof.Threads}
				rows, passes := o.workload(cfg, prof, 8)
				rows = rows * 16 / w // keep byte volume comparable
				if rows < 200_000 {
					rows = 200_000
				}
				res, _, err := o.runBench(prof, 8, 0, int64(950+i), cluster.BenchOpts{
					Factory: cluster.RDMAProvider(cfg), RowsPerNode: rows, Passes: passes,
					RowWidth: w, ZeroCopy: zc,
				})
				if err != nil {
					return err
				}
				row.Vals[i] = res.GiBps()
				return nil
			})
		}
		t.Rows = append(t.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the paper always copies: tuples are ~16-200 B, and zero copy shows little benefit for",
		"small records because each record costs a gather element (~60 ns) instead of its copy")
	return t, nil
}

// ExtQPCache ablates the NIC Queue-Pair state cache, the mechanism this
// reproduction attributes the paper's FDR scale-out degradation to: MEMQ/SR
// on 16 nodes uses 448 QPs per node, and throughput tracks how many of them
// the NIC can cache.
func ExtQPCache(o Options) (*Table, error) {
	sizes := []int{16, 48, 128, 512, 2048}
	t := &Table{
		ID:    "Ablation: NIC QP-state cache size",
		Title: "MEMQ/SR and MESQ/SR repartition on 16 FDR-class nodes vs cache capacity",
		Unit:  "GiB/s per node",
	}
	for _, s := range sizes {
		t.Cols = append(t.Cols, fmt.Sprintf("%dQPs", s))
	}
	cs := cells{o: o}
	for _, a := range []shuffle.Algorithm{
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
		{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
	} {
		row := Row{Name: a.Name, Vals: make([]float64, len(sizes))}
		for i, size := range sizes {
			cs.add(func() error {
				prof := fabric.FDR()
				prof.QPCacheSize = size
				res, err := o.runThroughput(prof, a.Config(prof.Threads), 16, nil, int64(980+i))
				if err != nil {
					return err
				}
				row.Vals[i] = res.GiBps()
				return nil
			})
		}
		t.Rows = append(t.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"MEMQ/SR recovers its line-rate throughput once the cache holds its 448 QP states;",
		"MESQ/SR is insensitive because it uses 14 QPs regardless of cluster size (Table 1)")
	return t, nil
}

// ExtProfile reproduces the paper's §5.1.3 profiling analysis: on the
// sending side the most CPU-intensive activity is hashing tuples and
// copying them into registered memory, yet a sizable fraction of cycles is
// idle; the receiving side is blocked on completions for up to 90% of its
// cycles.
func ExtProfile(o Options) (*Table, error) {
	prof := fabric.EDR()
	t := &Table{
		ID:    "Profiling (§5.1.3)",
		Title: "worker busy fraction during 8-node EDR repartition",
		Unit:  "% of worker time on CPU work (rest blocked)",
		Cols:  []string{"sender", "receiver"},
	}
	t.Rows = make([]Row, len(shuffle.Algorithms))
	cs := cells{o: o}
	for ai, a := range shuffle.Algorithms {
		t.Rows[ai] = Row{Name: a.Name, Vals: make([]float64, 2)}
		cs.add(func() error {
			res, err := o.runThroughput(prof, a.Config(prof.Threads), 8, nil, 990)
			if err != nil {
				return err
			}
			t.Rows[ai].Vals[0] = 100 * res.SendBusyFrac
			t.Rows[ai].Vals[1] = 100 * res.RecvBusyFrac
			return nil
		})
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: senders hash+copy but still idle ~30% of cycles; MEMQ/SR and MESQ/SR block on",
		"credit, the others on pending RDMA operations; receivers are blocked up to 90%")
	return t, nil
}

// ExtSkew studies the designs under Zipf-skewed partitioning keys: hot
// receivers throttle every sender through flow control, the problem the
// flow-join line of work (paper §6) addresses above the transport.
func ExtSkew(o Options) (*Table, error) {
	prof := fabric.EDR()
	exps := []float64{0, 0.4, 0.8, 1.2}
	t := &Table{
		ID:    "Study: skewed partitioning keys",
		Title: "repartition throughput under Zipf key skew, 8 nodes, EDR",
		Unit:  "GiB/s per node (mean)",
	}
	for _, e := range exps {
		label := "uniform"
		if e > 0 {
			label = fmt.Sprintf("zipf %.1f", e)
		}
		t.Cols = append(t.Cols, label)
	}
	cs := cells{o: o}
	for _, a := range []shuffle.Algorithm{
		{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
		{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true},
	} {
		row := Row{Name: a.Name, Vals: make([]float64, len(exps))}
		for i, ex := range exps {
			cs.add(func() error {
				cfg := a.Config(prof.Threads)
				rows, passes := o.workload(cfg, prof, 8)
				res, _, err := o.runBench(prof, 8, 0, int64(1100+i), cluster.BenchOpts{
					Factory: cluster.RDMAProvider(cfg), RowsPerNode: rows, Passes: passes,
					ZipfExponent: ex,
				})
				if err != nil {
					return err
				}
				row.Vals[i] = res.GiBps()
				return nil
			})
		}
		t.Rows = append(t.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"skew concentrates traffic on hot receivers whose downlinks saturate while others idle;",
		"the transport cannot fix this — the paper cites track-join/flow-join as the remedy")
	return t, nil
}
