// Command shufflebench regenerates the paper's evaluation: every figure and
// table of §5 as a text report, measured in virtual time on the simulated
// FDR/EDR clusters.
//
// Usage:
//
//	shufflebench -list
//	shufflebench -exp fig10,fig12
//	shufflebench -exp all -full -out results.txt
//	shufflebench -chaos
//	shufflebench -trace out.json
//	shufflebench -metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/experiments"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		exp     = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		full    = flag.Bool("full", false, "paper-grade data volumes (slower, smoother numbers)")
		out     = flag.String("out", "", "also write the report to this file")
		seed    = flag.Int64("seed", 42, "simulation seed")
		chaos   = flag.Bool("chaos", false, "run the fault-injection matrix instead of the experiments")
		trace   = flag.String("trace", "", "run a short traced benchmark and write Chrome trace-event JSON to this file")
		metrics = flag.Bool("metrics", false, "regenerate the paper's Table 1 counters from the metrics registry")
		workers = flag.Int("workers", 0, "simulation cells in flight at once: 1 = serial reference mode, 0 = one per CPU")
		lps     = flag.Int("lps", 0, "logical partitions per simulation: every cell of every exhibit — throughput, setup-only, DAG and TPC-H — is spread over this many (0 and 1 both mean one; byte-identical results at every count; cells on a lossy profile run on one partition and ignore it; combine with -workers 1 to give one big run the whole machine)")
		profile = flag.String("profile", "ib", "fabric for -chaos and -trace: 'ib' (lossless InfiniBand) or 'rocev2' (lossy Ethernet with PFC/ECN/DCQCN)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	var prof fabric.Profile
	switch *profile {
	case "ib":
		prof = fabric.FDR()
	case "rocev2":
		prof = fabric.RoCEv2Lossy()
	default:
		fmt.Fprintf(os.Stderr, "unknown -profile %q (want ib or rocev2)\n", *profile)
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("  %-10s %s\n", e.Name, e.What)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *trace != "" {
		if err := runTraced(w, *trace, prof, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*metrics {
			return
		}
	}
	if *metrics {
		if err := runMetrics(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *chaos {
		if err := runChaosMatrix(w, prof, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = names[:0]
		for _, e := range experiments.All {
			names = append(names, e.Name)
		}
	}
	var exps []*experiments.Experiment
	for _, name := range names {
		e := experiments.Find(strings.TrimSpace(name))
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			os.Exit(1)
		}
		exps = append(exps, e)
	}
	experiments.SetParallelism(*workers)
	opts := experiments.Options{Fast: !*full, Seed: *seed, Workers: *workers, ParallelLPs: *lps}
	mode := "fast"
	if *full {
		mode = "full"
	}
	fmt.Fprintf(w, "rshuffle evaluation reproduction (%s mode, seed %d)\n\n", mode, *seed)

	if opts.Workers == 1 {
		for _, e := range exps {
			start := time.Now()
			tables, err := e.Run(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
				os.Exit(1)
			}
			printTables(w, e.Name, tables, time.Since(start))
		}
		return
	}

	// Overlap whole experiments: each renders into a private buffer and the
	// buffers are flushed in the order the experiments were requested, so the
	// report reads identically to a serial run. The process-wide cell budget
	// keeps at most -workers simulations executing no matter how many
	// experiments are in flight.
	type result struct {
		buf  strings.Builder
		err  error
		done chan struct{}
	}
	results := make([]*result, len(exps))
	for i, e := range exps {
		r := &result{done: make(chan struct{})}
		results[i] = r
		go func() {
			defer close(r.done)
			start := time.Now()
			tables, err := e.Run(opts)
			if err != nil {
				r.err = err
				return
			}
			printTables(&r.buf, e.Name, tables, time.Since(start))
		}()
	}
	for i, r := range results {
		<-r.done
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exps[i].Name, r.err)
			os.Exit(1)
		}
		io.WriteString(w, r.buf.String())
	}
}

// printTables writes an experiment's tables to the report. The wall-clock
// line goes to stderr: the report holds virtual-time results only, so the
// same seed regenerates it byte for byte (make results-check).
func printTables(w io.Writer, name string, tables []*experiments.Table, elapsed time.Duration) {
	for _, t := range tables {
		fmt.Fprintln(w, t.Format())
	}
	fmt.Fprintf(os.Stderr, "  (%s completed in %v wall time)\n", name, elapsed.Round(time.Millisecond))
}

// runTraced executes a short MEMQ/SR benchmark with the event tracer
// attached and writes the Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto) to path. On the rocev2 profile the workload
// funnels into node 0 so the trace exercises the lossy-tier vocabulary
// (pause frames, ECN marks, CNPs, rate cuts, retransmits). The simulation
// is deterministic: two runs with the same seed write byte-identical files,
// which CI exploits as a regression check.
func runTraced(w io.Writer, path string, prof fabric.Profile, seed int64) error {
	c := cluster.New(prof, 4, 2, seed)
	c.EnableTracing(1 << 20)                       // per node: far more than this run emits
	cfg := shuffle.Algorithms[0].Config(c.Threads) // MEMQ/SR
	opts := cluster.BenchOpts{
		Factory: cluster.RDMAProvider(cfg), RowsPerNode: 8192,
	}
	if prof.Lossy {
		opts.RowsPerNode = 16384
		opts.GroupsFn = func(int) shuffle.Groups { return shuffle.Groups{{0}} }
	}
	res, err := c.RunBench(opts)
	if err != nil {
		return err
	}
	if res.Err != nil {
		return res.Err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// c.Trace(), not the tracer EnableTracing returns: every node records
	// into its own shard and that one is the control actor's alone.
	events := c.Trace()
	if err := telemetry.WriteChromeEvents(f, events); err != nil {
		return err
	}
	fmt.Fprintf(w, "traced %s benchmark: %s, %d nodes, %d rows/node, seed %d\n",
		shuffle.Algorithms[0].Name, prof.Name, 4, opts.RowsPerNode, seed)
	fmt.Fprintf(w, "  elapsed %v, %d events -> %s\n", res.Elapsed, len(events), path)
	return nil
}

// runMetrics regenerates the paper's Table 1 counters purely from the
// metrics registry: the Queue Pair census of the EDR cluster (16 nodes, 14
// threads per node) and the per-design WQE and QP-state-cache activity of a
// streaming run on the FDR cluster, whose 48-entry cache is the bottleneck
// the paper's Fig. 11 investigates.
func runMetrics(w io.Writer, seed int64) error {
	fmt.Fprintf(w, "registry-derived paper counters (seed %d)\n\n", seed)
	fmt.Fprintf(w, "Table 1 QP census (EDR, 16 nodes x 14 threads/node)\n")
	fmt.Fprintf(w, "  derivation: verbs.qps_created.node0 / 2 (one operator pair creates send + receive side)\n")
	fmt.Fprintf(w, "  %-8s %12s\n", "design", "QPs/operator")
	for _, name := range []string{"MEMQ/SR", "SEMQ/SR", "MESQ/SR", "SESQ/SR"} {
		alg := findAlgorithm(name)
		c := cluster.New(fabric.EDR(), 16, 14, seed)
		cfg := alg.Config(c.Threads)
		if err := c.Run(&cluster.Query{Name: "build", Setup: func(p *sim.Proc) {
			shuffle.Build(p, c.Devs, cfg, c.Threads)
		}}); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		reg := c.Metrics()
		fmt.Fprintf(w, "  %-8s %12d\n", strings.SplitN(name, "/", 2)[0],
			reg.CounterValue("verbs.qps_created.node0")/2)
	}

	const rows = 2048
	fmt.Fprintf(w, "\nWQE and QP-cache activity (FDR, 8 nodes x 10 threads/node, %d rows/node)\n", rows)
	fmt.Fprintf(w, "  %-8s %8s %9s %9s %9s %8s %7s %7s\n",
		"design", "QPs/op", "WQEs", "hits", "misses", "evicts", "miss%", "ctl%")
	for _, alg := range shuffle.Algorithms {
		c := cluster.New(fabric.FDR(), 8, 10, seed)
		cfg := alg.Config(c.Threads)
		res, err := c.RunBench(cluster.BenchOpts{
			Factory: cluster.RDMAProvider(cfg), RowsPerNode: rows,
		})
		if err != nil {
			return fmt.Errorf("%s: %v", alg.Name, err)
		}
		if res.Err != nil {
			return fmt.Errorf("%s: %v", alg.Name, res.Err)
		}
		reg := c.Metrics()
		hits := reg.CounterValue("fabric.qp_cache_hits.total")
		misses := reg.CounterValue("fabric.qp_cache_misses.total")
		missPct := 0.0
		if hits+misses > 0 {
			missPct = 100 * float64(misses) / float64(hits+misses)
		}
		ctl := reg.CounterValue("fabric.tx_control_bytes.total")
		wire := reg.CounterValue("fabric.tx_wire_bytes.total")
		ctlPct := 0.0
		if wire > 0 {
			ctlPct = 100 * float64(ctl) / float64(wire)
		}
		fmt.Fprintf(w, "  %-8s %8d %9d %9d %9d %8d %6.1f%% %6.2f%%\n",
			alg.Name,
			reg.CounterValue("verbs.qps_created.node0")/2,
			reg.CounterValue("verbs.posts.total"),
			hits, misses,
			reg.CounterValue("fabric.qp_cache_evictions.total"),
			missPct, ctlPct)
	}
	return nil
}

func findAlgorithm(name string) shuffle.Algorithm {
	for _, a := range shuffle.Algorithms {
		if a.Name == name {
			return a
		}
	}
	panic("unknown algorithm " + name)
}

// runChaosMatrix runs every Table 1 algorithm under every fault scenario —
// transient, persistent, and crash-stop — and prints one outcome row per
// cell. On the rocev2 profile the injected faults compose with the lossy
// tier's own hazards (pause frames, marks, tail drops, retransmits). With a
// fixed seed the table is bit-for-bit reproducible.
func runChaosMatrix(w io.Writer, prof fabric.Profile, seed int64) error {
	opts := cluster.ChaosOpts{
		Prof: prof, Nodes: 3, Threads: 2,
		RowsPerNode: 8192, Seed: seed,
		Policy: cluster.RecoveryPolicy{
			MaxRestarts: 2,
			BaseBackoff: 500 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		},
	}
	faults := append(cluster.ChaosFaults(), cluster.ChaosCrashFaults()...)
	faults = append(faults, cluster.ChaosTransientFaults()...)
	fmt.Fprintf(w, "chaos matrix: %s, %d nodes, %d rows/node, seed %d (restarts<=%d)\n\n",
		prof.Name, opts.Nodes, opts.RowsPerNode, seed, opts.Policy.MaxRestarts)
	fmt.Fprintf(w, "%-9s %-21s %-9s %8s %7s %8s %5s %10s %9s  %s\n",
		"alg", "fault", "outcome", "restarts", "members", "rows", "det", "maxdetect", "restream", "error")
	for _, alg := range shuffle.Algorithms {
		for _, f := range faults {
			o, err := cluster.RunChaos(alg, f, opts)
			if err != nil {
				return fmt.Errorf("%s/%s: simulation failed: %v", alg.Name, f.Name, err)
			}
			outcome := "ok"
			if o.Failed {
				outcome = "exhausted"
			}
			maxDet := "-"
			if o.MaxDetect > 0 {
				maxDet = o.MaxDetect.String()
			}
			// restream reports the partial-restart economy: partitions
			// re-streamed over the total a full restart would move.
			restream := "-"
			if all := o.PartitionsKept + o.PartitionsRestreamed; all > 0 {
				restream = fmt.Sprintf("%d/%d", o.PartitionsRestreamed, all)
			}
			errText := ""
			if o.Failed {
				errText = o.Err
			}
			fmt.Fprintf(w, "%-9s %-21s %-9s %8d %7d %8d %5d %10s %9s  %s\n",
				alg.Name, f.Name, outcome, o.Restarts, o.Members, o.Rows, o.Detections, maxDet, restream, errText)
		}
	}
	return nil
}
