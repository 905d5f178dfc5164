// Command benchjson converts `go test -bench` text output (read from stdin)
// into a machine-readable JSON report. `make bench` pipes the kernel micro-
// and cluster macro-benchmarks through it to produce BENCH_sim.json, which
// CI archives so hot-path regressions (ns/op, allocs/op, events/sec) show up
// as artifact diffs rather than anecdotes.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./internal/sim/ | benchjson -o BENCH_sim.json
//
// When -count>1 repeats a benchmark, the fastest repetition is kept:
// scheduler and cache interference only ever add time, so the minimum is
// the noise-robust estimate the regression gate should judge.
//
// Regression gate mode: -compare diffs two runs and exits non-zero when any
// benchmark's ns/op regressed by more than -threshold (fractional; 0.15 =
// 15%). With two file arguments it compares their latest runs; with one
// argument it compares the last two runs of that file's -append history.
// CI runs the smoke benches through it so a hot-path regression fails the
// build instead of landing silently.
//
//	benchjson -compare old.json new.json -threshold 0.15
//	benchjson -compare BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is one benchmark run.
type Report struct {
	Time       string      `json:"time,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// History is the accumulating BENCH_sim.json schema: one entry per `make
// bench` invocation, newest last, so regression tracking sees a series
// instead of only the latest sample.
type History struct {
	Runs []Report `json:"runs"`
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output file")
	appendRun := flag.Bool("append", false, "append this run to the output file's run history instead of overwriting")
	compare := flag.Bool("compare", false, "compare runs and exit non-zero on ns/op regression: two file args = their latest runs, one file arg = the last two runs of its history")
	threshold := flag.Float64("threshold", 0.15, "fractional ns/op regression that fails -compare (0.15 = 15%)")
	flag.Parse()

	if *compare {
		// Accept flags after the file arguments (`-compare a.json b.json
		// -threshold 0.15`): stdlib flag parsing stops at the first
		// positional, so re-parse whenever one of the remaining arguments
		// still looks like a flag.
		rest := flag.Args()
		var files []string
		for len(rest) > 0 {
			if strings.HasPrefix(rest[0], "-") {
				if err := flag.CommandLine.Parse(rest); err != nil {
					os.Exit(2)
				}
				rest = flag.Args()
				continue
			}
			files = append(files, rest[0])
			rest = rest[1:]
		}
		os.Exit(runCompare(files, *threshold))
	}

	rep := Report{Benchmarks: []Benchmark{}}
	pkg := ""
	idx := map[string]int{} // Pkg+"."+Name -> position in rep.Benchmarks
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line, pkg)
			if !ok {
				break
			}
			// -count>1 repeats each benchmark; keep the fastest repetition.
			// The minimum is the noise-robust estimator for gating — scheduler
			// and cache interference only ever add time — where a single
			// repetition makes channel-handoff-bound benchmarks flap by ±20%
			// on a busy machine.
			if j, seen := idx[b.Pkg+"."+b.Name]; seen {
				if b.Metrics["ns/op"] < rep.Benchmarks[j].Metrics["ns/op"] {
					rep.Benchmarks[j] = b
				}
				break
			}
			idx[b.Pkg+"."+b.Name] = len(rep.Benchmarks)
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	var doc any = &rep
	runs := 1
	if *appendRun {
		rep.Time = time.Now().UTC().Format(time.RFC3339)
		hist := loadHistory(*out)
		hist.Runs = append(hist.Runs, rep)
		doc, runs = &hist, len(hist.Runs)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *appendRun {
		fmt.Printf("benchjson: appended %d benchmarks to %s (%d runs)\n", len(rep.Benchmarks), *out, runs)
		return
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// runCompare loads the baseline and candidate runs, diffs ns/op per
// benchmark, prints a verdict line for each, and returns the process exit
// code: 0 when no benchmark regressed past the threshold, 1 otherwise.
// Benchmarks present on only one side are reported but never fail the gate
// (new benchmarks appear, retired ones disappear; neither is a regression).
func runCompare(args []string, threshold float64) int {
	var oldRun, newRun Report
	var oldLabel, newLabel string
	switch len(args) {
	case 1:
		hist := loadHistory(args[0])
		if len(hist.Runs) < 2 {
			fmt.Fprintf(os.Stderr, "benchjson: %s has %d run(s); -compare needs two\n",
				args[0], len(hist.Runs))
			return 1
		}
		oldRun, newRun = hist.Runs[len(hist.Runs)-2], hist.Runs[len(hist.Runs)-1]
		oldLabel, newLabel = "previous run", "latest run"
	case 2:
		for i, p := range []string{args[0], args[1]} {
			hist := loadHistory(p)
			if len(hist.Runs) == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %s holds no benchmark runs\n", p)
				return 1
			}
			if i == 0 {
				oldRun = hist.Runs[len(hist.Runs)-1]
			} else {
				newRun = hist.Runs[len(hist.Runs)-1]
			}
		}
		oldLabel, newLabel = args[0], args[1]
	default:
		fmt.Fprintln(os.Stderr, "benchjson: -compare takes one history file or two run files")
		return 1
	}

	oldNs := map[string]float64{}
	for _, b := range oldRun.Benchmarks {
		oldNs[b.Pkg+"."+currentName(b.Name)] = b.Metrics["ns/op"]
	}
	fmt.Printf("benchjson: comparing %s -> %s (threshold %+.0f%% ns/op)\n",
		oldLabel, newLabel, threshold*100)
	failed := 0
	for _, b := range newRun.Benchmarks {
		key := b.Pkg + "." + b.Name
		was, ok := oldNs[key]
		now := b.Metrics["ns/op"]
		delete(oldNs, key)
		if !ok {
			fmt.Printf("  new      %-40s %12.1f ns/op\n", b.Name, now)
			continue
		}
		if was <= 0 || now <= 0 {
			continue
		}
		delta := now/was - 1
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSED"
			failed++
		}
		fmt.Printf("  %-8s %-40s %12.1f -> %10.1f ns/op (%+.1f%%)\n",
			verdict, b.Name, was, now, delta*100)
	}
	for key := range oldNs {
		fmt.Printf("  retired  %s\n", key)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%%\n",
			failed, threshold*100)
		return 1
	}
	return 0
}

// renamed maps a benchmark's former name to its current one, so a series
// recorded under the old name continues through -compare instead of showing
// up as one retired benchmark and one new one.
//
// BenchmarkTPCHPlansLP0 is retired, not renamed: it timed lossless plans on
// the single-Simulation engine, which lossless profiles no longer boot.
// -compare lists it as retired once; what cluster.New costs continues in
// BenchmarkTPCHPlansLP1, whose own series carries the 1.7x -> 1.0x step.
var renamed = map[string]string{
	"BenchmarkHeapSchedule": "BenchmarkWheelSchedule", // it has timed the wheel since the heap went
}

// currentName applies renamed to a recorded name, keeping its -N GOMAXPROCS
// suffix.
func currentName(name string) string {
	base, suffix := name, ""
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		base, suffix = name[:i], name[i:]
	}
	if now, ok := renamed[base]; ok {
		return now + suffix
	}
	return name
}

// loadHistory reads the existing output file, accepting both the history
// schema and the original bare-Report schema (which becomes the first run).
// A missing or unparseable file starts a fresh history.
func loadHistory(path string) History {
	var hist History
	raw, err := os.ReadFile(path)
	if err != nil {
		return hist
	}
	if json.Unmarshal(raw, &hist) == nil && hist.Runs != nil {
		return hist
	}
	var old Report
	if json.Unmarshal(raw, &old) == nil && len(old.Benchmarks) > 0 {
		hist.Runs = append(hist.Runs, old)
	}
	return hist
}

// parseLine parses one result line: the benchmark name (with its -N GOMAXPROCS
// suffix, if any), the iteration count, then (value, unit) metric pairs.
//
//	BenchmarkRing 	124924426	         9.710 ns/op	 103164018 events/sec	       0 B/op	       0 allocs/op
func parseLine(line, pkg string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Pkg: pkg, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}
