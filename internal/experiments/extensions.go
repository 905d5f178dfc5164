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

// extWrite compares the one-sided designs: the paper's RDMA Read endpoints
// against the future-work RDMA Write endpoints, for both patterns on EDR.
func extWrite() (x exhibit) {
	prof := fabric.EDR()
	algos := []shuffle.Algorithm{
		{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true},
		{Name: "SEMQ/RD", Impl: shuffle.MQRD, ME: false},
		{Name: "MEMQ/WR", Impl: shuffle.MQWR, ME: true},
		{Name: "SEMQ/WR", Impl: shuffle.MQWR, ME: false},
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
	}
	nodesSweep := []int{4, 8, 16}
	for _, pattern := range []string{"repartition", "broadcast"} {
		t := &Table{
			ID:    "Extension: RDMA Write endpoint (" + pattern + ")",
			Title: "one-sided designs on EDR — the paper's first future-work item",
			Unit:  "GiB/s per node",
		}
		for _, n := range nodesSweep {
			t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
		}
		for _, a := range algos {
			row := t.series(a.Name)
			for i, n := range nodesSweep {
				groups := shuffle.Repartition(n)
				if pattern == "broadcast" {
					groups = shuffle.Broadcast(n)
				}
				x.cells = append(x.cells, cell{key: key("ext-write", pattern, a.Name, t.Cols[i]),
					prof: prof, nodes: n, cfg: a.Config(prof.Threads), seedOff: int64(700 + i),
					bench: cluster.BenchOpts{Groups: groups}, out: []*float64{&row[i]}})
			}
		}
		t.Notes = append(t.Notes,
			"WR frees send buffers on local completions, so broadcast does not starve for buffer",
			"returns the way RD does (§5.1.3); data+announcement ride one ordered QP")
		x.tables = append(x.tables, t)
	}
	return x
}

// extFabrics runs the designs on RoCE and iWARP (the second future-work
// item). iWARP offers no Unreliable Datagram service, so the SQ/SR designs
// cannot run there.
func extFabrics() (x exhibit) {
	t := &Table{
		ID:    "Extension: RoCE and iWARP",
		Title: "repartition throughput on Ethernet RDMA fabrics, 8 nodes",
		Unit:  "GiB/s per node",
		Cols:  []string{"RoCE", "iWARP"},
	}
	profs := []fabric.Profile{fabric.RoCE(), fabric.IWARP()}
	for _, a := range shuffle.Algorithms {
		row := t.series(a.Name)
		for i, prof := range profs {
			if a.Impl == shuffle.SQSR && !prof.SupportsUD {
				row[i] = math.NaN()
				continue
			}
			x.cells = append(x.cells, cell{key: key("ext-fabrics", prof.Name, a.Name),
				prof: prof, nodes: 8, cfg: a.Config(prof.Threads), seedOff: int64(800 + i),
				out: []*float64{&row[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"iWARP has no UD service: the SQ/SR designs (including the paper's winner MESQ/SR)",
		"cannot run there, leaving only the connection-oriented designs")
	x.tables = []*Table{t}
	return x
}

// extMulticast measures MESQ/SR broadcast with native InfiniBand hardware
// multicast (the third future-work item): one work request and one uplink
// serialization per buffer, replicated by the switch.
func extMulticast() (x exhibit) {
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
	for _, hw := range []bool{false, true} {
		name := "MESQ/SR"
		if hw {
			name = "MESQ/SR+mcast"
		}
		row, tx := t.series(name), t.series(name+" txmsgs")
		for i, n := range nodesSweep {
			x.cells = append(x.cells, cell{key: key("ext-mcast", name, t.Cols[i]),
				prof: prof, nodes: n, seedOff: int64(900 + i),
				cfg:   shuffle.Config{Impl: shuffle.SQSR, Endpoints: prof.Threads, HWMulticast: hw},
				bench: cluster.BenchOpts{Groups: shuffle.Broadcast(n)},
				read:  gibpsAndTxMessages, out: []*float64{&row[i], &tx[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"the paper hypothesizes multicast reduces CPU cost since MESQ/SR already runs at line",
		"rate: transmitted messages (and send WQEs) drop by ~the cluster size")
	x.tables = []*Table{t}
	return x
}

// gibpsAndTxMessages reads a multicast cell: throughput and the messages
// node 0 transmitted.
func gibpsAndTxMessages(_ *cell, r *cluster.BenchResult, cl *cluster.Cluster, _ bool) []float64 {
	return []float64{r.GiBps(), float64(cl.Net.Stats(0).TxMessages)}
}

// extZeroCopy reproduces the §4.3.1 design discussion: copying tuples into
// registered buffers versus zero-copy sends that need one scatter/gather
// element per record. Small records favour copying (Kesavan et al.).
func extZeroCopy() (x exhibit) {
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
	cfg := shuffle.Config{Impl: shuffle.MQSR, Endpoints: prof.Threads}
	for _, zc := range []bool{false, true} {
		name := "copy"
		if zc {
			name = "zero-copy"
		}
		row := t.series(name)
		for i, w := range widths {
			rows, passes := workload(cfg, prof, 8)
			rows = max(rows*16/w, 200_000) // keep byte volume comparable
			x.cells = append(x.cells, cell{key: key("ext-zerocopy", name, t.Cols[i]),
				prof: prof, nodes: 8, cfg: cfg, seedOff: int64(950 + i),
				bench: cluster.BenchOpts{RowsPerNode: rows, Passes: passes, RowWidth: w, ZeroCopy: zc},
				out:   []*float64{&row[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"the paper always copies: tuples are ~16-200 B, and zero copy shows little benefit for",
		"small records because each record costs a gather element (~60 ns) instead of its copy")
	x.tables = []*Table{t}
	return x
}

// extQPCache ablates the NIC Queue-Pair state cache, the mechanism this
// reproduction attributes the paper's FDR scale-out degradation to: MEMQ/SR
// on 16 nodes uses 448 QPs per node, and throughput tracks how many of them
// the NIC can cache.
func extQPCache() (x exhibit) {
	sizes := []int{16, 48, 128, 512, 2048}
	t := &Table{
		ID:    "Ablation: NIC QP-state cache size",
		Title: "MEMQ/SR and MESQ/SR repartition on 16 FDR-class nodes vs cache capacity",
		Unit:  "GiB/s per node",
	}
	for _, s := range sizes {
		t.Cols = append(t.Cols, fmt.Sprintf("%dQPs", s))
	}
	for _, a := range []shuffle.Algorithm{
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
		{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
	} {
		row := t.series(a.Name)
		for i, size := range sizes {
			prof := fabric.FDR()
			prof.QPCacheSize = size
			x.cells = append(x.cells, cell{key: key("ext-qpcache", a.Name, t.Cols[i]),
				prof: prof, nodes: 16, cfg: a.Config(prof.Threads), seedOff: int64(980 + i),
				out: []*float64{&row[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"MEMQ/SR recovers its line-rate throughput once the cache holds its 448 QP states;",
		"MESQ/SR is insensitive because it uses 14 QPs regardless of cluster size (Table 1)")
	x.tables = []*Table{t}
	return x
}

// extProfile reproduces the paper's §5.1.3 profiling analysis: on the
// sending side the most CPU-intensive activity is hashing tuples and
// copying them into registered memory, yet a sizable fraction of cycles is
// idle; the receiving side is blocked on completions for up to 90% of its
// cycles.
func extProfile() (x exhibit) {
	prof := fabric.EDR()
	t := &Table{
		ID:    "Profiling (§5.1.3)",
		Title: "worker busy fraction during 8-node EDR repartition",
		Unit:  "% of worker time on CPU work (rest blocked)",
		Cols:  []string{"sender", "receiver"},
	}
	for _, a := range shuffle.Algorithms {
		x.cells = append(x.cells, cell{key: key("ext-profile", a.Name),
			prof: prof, nodes: 8, cfg: a.Config(prof.Threads), seedOff: 990,
			read: busyPercent, out: slots(t.series(a.Name))})
	}
	t.Notes = append(t.Notes,
		"paper: senders hash+copy but still idle ~30% of cycles; MEMQ/SR and MESQ/SR block on",
		"credit, the others on pending RDMA operations; receivers are blocked up to 90%")
	x.tables = []*Table{t}
	return x
}

// busyPercent reads a profiling cell: sender and receiver busy percent.
func busyPercent(_ *cell, r *cluster.BenchResult, _ *cluster.Cluster, _ bool) []float64 {
	return []float64{100 * r.SendBusyFrac, 100 * r.RecvBusyFrac}
}

// extSkew studies the designs under Zipf-skewed partitioning keys: hot
// receivers throttle every sender through flow control, the problem the
// flow-join line of work (paper §6) addresses above the transport.
func extSkew() (x exhibit) {
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
	for _, a := range []shuffle.Algorithm{
		{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
		{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true},
	} {
		row := t.series(a.Name)
		for i, ex := range exps {
			x.cells = append(x.cells, cell{key: key("ext-skew", a.Name, t.Cols[i]),
				prof: prof, nodes: 8, cfg: a.Config(prof.Threads), seedOff: int64(1100 + i),
				bench: cluster.BenchOpts{ZipfExponent: ex}, out: []*float64{&row[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"skew concentrates traffic on hot receivers whose downlinks saturate while others idle;",
		"the transport cannot fix this — the paper cites track-join/flow-join as the remedy")
	x.tables = []*Table{t}
	return x
}
