// Command bench is the repository's benchmark: six whole-query workloads
// measured on the host clock and the virtual clock, and a traced pass that
// attributes each query to the layers from sim to dag. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory explains them.
//
//	bash bench/run.sh --workload shuffle8_ud --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, both passes
//	bash bench/run.sh -selfcheck      # two sets of runs must agree within the bounds
//
// Each run prints one JSON object as the last line of standard output;
// everything for people goes to standard error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// minReps is the fewest whole queries a pass times, however short the
// budget: below ten a median says little.
const minReps = 10

// probeBudget is the length of one round of a layer probe. Three rounds of
// some forty probes have to fit in a run beside the whole queries.
const probeBudget = 25 * time.Millisecond

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs all of them, both passes")
		seed      = flag.Int64("seed", 42, "cluster (simulator) seed")
		seconds   = flag.Float64("seconds", 10, "how long one pass times whole queries")
		trace     = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
		scratch   = flag.String("scratch", ".bench_build", "directory for the CPU profile and the span file")
		selfcheck = flag.Bool("selfcheck", false, "make two end-to-end runs of every workload and compare them against the bounds of BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	budget := time.Duration(*seconds * float64(time.Second))

	// One P. A simulation runs one Proc at a time, so a second P buys only a
	// concurrent collector, and costs a futex wake-up on another thread for
	// many Proc handoffs: on the 2-core sandbox every workload is 15–35 %
	// slower at two Ps and swings twice as much from run to run. One
	// simulation per core is also how the experiment sweeps run.
	runtime.GOMAXPROCS(1)
	header(*seed)

	all := workloads(fullSize)
	if *name != "" {
		for _, w := range all {
			if w.name == *name {
				p, err := runPass(w, *trace, *seed, budget, *scratch)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				if p.failed > 0 {
					os.Exit(1)
				}
				return
			}
		}
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	// Without -workload every run is a child process of its own, as the
	// driver makes them: the verbs buffer pool is process-wide, and what one
	// workload leaves parked in it changes what the next one allocates.
	child := func(w workload, mode int) ([]byte, error) {
		cmd := exec.Command(os.Args[0], "-workload", w.name, "-trace", strconv.Itoa(mode),
			"-seed", strconv.FormatInt(*seed, 10), "-seconds", fmt.Sprint(*seconds), "-scratch", *scratch)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		return lines[len(lines)-1], nil
	}
	if *selfcheck {
		if err := selfCheck(all, child); err != nil {
			fatal(err)
		}
		return
	}
	for _, w := range all {
		for mode := 0; mode <= 1; mode++ {
			line, err := child(w, mode)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// header records what the numbers depend on besides the code.
func header(seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, seed, commit)
}

// result is the one line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runPass measures one workload in one mode and prints its result line.
func runPass(w workload, mode int, seed int64, budget time.Duration, scratch string) (*pass, error) {
	var p *pass
	var err error
	defs := endToEnd
	switch mode {
	case 0:
		p, err = measureEndToEnd(w, seed, budget, minReps)
	case 1:
		defs = perLayer
		if err = os.MkdirAll(scratch, 0o755); err == nil {
			p, err = measureLayers(w, seed, budget, minReps, probeBudget, scratch)
		}
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return nil, err
	}
	metrics, err := report(defs, p.values)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s trace=%d: %d queries, %d failed\n", w.name, mode, p.attempted, p.failed)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return p, nil
}

// selfCheck makes two end-to-end runs of every workload and fails unless the
// two agree within each metric's bound, printing the spread it saw beside the
// bound.
func selfCheck(all []workload, run func(workload, int) ([]byte, error)) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, w := range all {
		var sets [2]result
		for i := range sets {
			line, err := run(w, 0)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(line, &sets[i]); err != nil {
				return err
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := sets[0].Metrics[m.Name].Value, sets[1].Metrics[m.Name].Value
			spread := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if !(spread <= m.Bound) {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %8.3f%% %6.1f%%%s\n", w.name, m.Name, a, b, 100*spread, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics outside their bound", bad)
	}
	return nil
}
