package cluster

import (
	"errors"
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// ErrRecoveryExhausted means a query kept failing until its RecoveryPolicy
// gave up (restart budget spent). The last attempt's transport
// error is wrapped for diagnosis.
var ErrRecoveryExhausted = errors.New("cluster: recovery exhausted")

// RecoveryPolicy governs how the harness reacts to a failed query fragment.
// Any transport error — UD data loss (§4.4.2), RNR or transport retry
// exhaustion erroring a Queue Pair, an endpoint stall — aborts the attempt,
// and the query restarts from scratch on a fresh cluster after an
// exponential virtual-time backoff, up to MaxRestarts times. Simulation
// failures (a genuine deadlock) are not recoverable and surface directly.
type RecoveryPolicy struct {
	// MaxRestarts bounds how many restarts follow the initial attempt.
	MaxRestarts int
	// BaseBackoff is the virtual-time delay charged before the first
	// restart; every further restart doubles it. Zero disables backoff.
	BaseBackoff sim.Duration
	// MaxBackoff caps the doubling; zero leaves it uncapped.
	MaxBackoff sim.Duration
}

// Attempt records one try of the query under a RecoveryPolicy.
type Attempt struct {
	// Backoff is the virtual-time delay charged before this attempt.
	Backoff sim.Duration
	// Elapsed is the attempt's query response time.
	Elapsed sim.Duration
	// Err is the attempt's transport error; nil for a successful attempt.
	Err error
	// Membership lists the original node ids the attempt ran on. Plain
	// RecoveryPolicy runs leave it nil (full membership every attempt);
	// MembershipRecovery shrinks it as the failure detector declares nodes
	// dead.
	Membership []int
}

// RecoveryResult reports a query run under a RecoveryPolicy.
type RecoveryResult struct {
	// BenchResult holds the final attempt's metrics (successful or not).
	*BenchResult
	// Restarts is the number of restarts performed.
	Restarts int
	// Attempts lists every attempt in order, including the failures.
	Attempts []Attempt
	// TotalVirtual is the virtual time spent across all attempts and
	// backoffs. Each attempt runs on its own single-use Simulation, so this
	// is the accounting sum, not one clock reading.
	TotalVirtual sim.Duration
	// Detections and MaxDetect aggregate the failure detector across all
	// attempts (MembershipRecovery only): total suspicion events and the
	// worst crash-to-suspicion latency.
	Detections int
	MaxDetect  sim.Duration
	// PartitionsKept counts the (source, destination) partitions that
	// restart attempts skipped re-streaming because the destination already
	// held them complete from an earlier attempt; PartitionsRestreamed
	// counts the partitions restarts streamed again. A full restart of an
	// n-node query re-streams n*n partitions per attempt.
	PartitionsKept, PartitionsRestreamed int
}

// PublishMetrics copies the recovery run's aggregates into the registry
// under "recovery.*" names, so fault experiments report through the same
// channel as the data-path counters.
func (r *RecoveryResult) PublishMetrics(reg *telemetry.Registry) {
	reg.Counter("recovery.restarts").Add(int64(r.Restarts))
	reg.Counter("recovery.attempts").Add(int64(len(r.Attempts)))
	reg.Counter("recovery.fd_detections").Add(int64(r.Detections))
	reg.Gauge("recovery.fd_max_detect_us").SetMax(float64(r.MaxDetect) / 1e3)
	reg.Gauge("recovery.total_virtual_ms").SetMax(float64(r.TotalVirtual) / 1e6)
	reg.Counter("recovery.partitions_kept").Add(int64(r.PartitionsKept))
	reg.Counter("recovery.partitions_restreamed").Add(int64(r.PartitionsRestreamed))
}

// backoff returns the delay before restart number restart (0-based).
func (pol RecoveryPolicy) backoff(restart int) sim.Duration {
	if pol.BaseBackoff <= 0 {
		return 0
	}
	if restart > 32 {
		restart = 32 // avoid shift overflow; long past any real cap
	}
	b := pol.BaseBackoff << uint(restart)
	if pol.MaxBackoff > 0 && b > pol.MaxBackoff {
		b = pol.MaxBackoff
	}
	return b
}

// Run executes the workload under the policy. mk builds a fresh cluster for
// the given attempt number (a Simulation is single-use, so every attempt
// needs its own); fault-injection harnesses use the attempt number to model
// transient versus persistent faults. The returned error is nil on eventual
// success, wraps ErrRecoveryExhausted when the policy gives up, and is the
// raw simulation error (with a partial result) when a run fails outright.
func (pol RecoveryPolicy) Run(mk func(attempt int) *Cluster, opts BenchOpts) (*RecoveryResult, error) {
	return pol.run(&RecoveryResult{}, func(attempt int) (*BenchResult, []int, error) {
		res, err := mk(attempt).RunBench(opts)
		return res, nil, err
	}, func(*BenchResult) error { return nil })
}

// run is the attempt loop every recovery flavour shares. try performs one
// attempt and reports its result and the membership it ran on; a simulation
// failure (e.g. an undetected protocol deadlock) is terminal, since
// restarting cannot help. Each completed attempt is recorded with the
// backoff charged before it and its virtual time. After a failed attempt,
// failed may re-plan the next one or veto it; then the policy decides
// whether a restart is still allowed.
func (pol RecoveryPolicy) run(r *RecoveryResult, try func(attempt int) (*BenchResult, []int, error), failed func(*BenchResult) error) (*RecoveryResult, error) {
	var backoff sim.Duration
	for attempt := 0; ; attempt++ {
		res, members, err := try(attempt)
		if err != nil {
			r.Restarts = len(r.Attempts)
			return r, err
		}
		r.BenchResult = res
		r.TotalVirtual += res.Elapsed
		r.Attempts = append(r.Attempts, Attempt{
			Backoff: backoff, Elapsed: res.Elapsed, Err: res.Err, Membership: members,
		})
		r.Restarts = attempt
		if res.Err == nil {
			return r, nil
		}
		if err := failed(res); err != nil {
			return r, err
		}
		if backoff, err = pol.next(r, attempt, res.Err); err != nil {
			return r, err
		}
	}
}

// next decides whether a further restart is allowed after failed attempt
// number attempt and, if so, charges its backoff to TotalVirtual.
func (pol RecoveryPolicy) next(r *RecoveryResult, attempt int, cause error) (sim.Duration, error) {
	if attempt >= pol.MaxRestarts {
		return 0, fmt.Errorf("%w after %d attempt(s): %v",
			ErrRecoveryExhausted, attempt+1, cause)
	}
	b := pol.backoff(attempt)
	r.TotalVirtual += b
	return b, nil
}

// MembershipRecovery is the crash-aware recovery policy: every attempt runs
// with a heartbeat failure detector armed, and when the detector declares
// nodes dead the next attempt re-plans the query over the N-1 survivors
// instead of retrying the full membership against a node that will never
// answer.
//
// When the membership is unchanged between attempts — the transient-fault
// case: a reboot or a healed partition, where the detector suspects but
// never convicts — restarts are partial: the per-partition progress
// watermarks of the failed attempt (BenchResult.Progress) identify the
// (source, destination) streams whose end-of-stream marker was delivered,
// and the next attempt skips re-streaming those. A destination whose boot
// epoch advanced mid-attempt lost its memory, so its watermarks are
// discarded and everything it held is re-streamed. A membership change
// re-hashes every partition, so it always forces a full re-stream.
type MembershipRecovery struct {
	Policy RecoveryPolicy
}

// keptPart is the carried payload of one complete (source, destination)
// partition: the rows and bytes the destination already holds.
type keptPart struct {
	rows, bytes int64
}

// Run executes the workload with membership-aware restarts. mk builds a
// fresh cluster of the given size for each attempt (attempt 0 always gets n
// nodes); opts.GroupsFn, when set, re-plans the transmission pattern for
// the shrunken cluster. The error contract matches RecoveryPolicy.Run.
func (mr MembershipRecovery) Run(n int, mk func(attempt, members int) *Cluster, opts BenchOpts) (*RecoveryResult, error) {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	// kept maps an {original src, original dst} pair to the payload the
	// destination retains from a completed stream of an earlier attempt.
	kept := make(map[[2]int]keptPart)
	r := &RecoveryResult{}
	var fd *Detector
	return mr.Policy.run(r, func(attempt int) (*BenchResult, []int, error) {
		aOpts := opts
		aOpts.SkipTo = skipMatrix(kept, members)
		if attempt > 0 {
			nk := countSkips(aOpts.SkipTo)
			r.PartitionsKept += nk
			r.PartitionsRestreamed += len(members)*len(members) - nk
		}
		c := mk(attempt, len(members))
		fd = c.InstallDetector()
		res, err := c.RunBench(aOpts)
		if err != nil {
			return nil, nil, err
		}
		// Fold the partitions this attempt skipped back into its totals, so
		// a partial restart reports the same delivered rows and bytes as the
		// fault-free run.
		for ld, dorig := range members {
			for _, sorig := range members {
				if k, ok := kept[[2]int{sorig, dorig}]; ok && ld < len(res.RowsPerNode) {
					res.RowsPerNode[ld] += k.rows
					res.BytesPerNode[ld] += k.bytes
				}
			}
		}
		r.Detections += fd.Detections
		if fd.MaxDetectionLatency > r.MaxDetect {
			r.MaxDetect = fd.MaxDetectionLatency
		}
		return res, append([]int(nil), members...), nil
	}, func(res *BenchResult) error {
		harvestKept(kept, res, members)
		// Shrink the membership by the nodes a majority suspects. The
		// detector indexes this attempt's cluster; map back to original ids.
		if dead := fd.Dead(); len(dead) > 0 {
			gone := make(map[int]bool, len(dead))
			for _, local := range dead {
				gone[local] = true
			}
			var next []int
			for local, orig := range members {
				if !gone[local] {
					next = append(next, orig)
				}
			}
			members = next
			// Fewer groups re-hash every tuple to a new destination: the
			// retained partitions no longer match the plan, so the shrunken
			// attempt re-streams everything.
			kept = make(map[[2]int]keptPart)
		}
		if len(members) == 0 {
			return fmt.Errorf("%w: no surviving members after %d attempt(s): %v",
				ErrRecoveryExhausted, len(r.Attempts), res.Err)
		}
		return nil
	})
}

// skipMatrix projects the kept-partition set onto the attempt's local node
// ids: row src lists the destinations sender src must not re-stream. It
// returns nil when nothing is kept.
func skipMatrix(kept map[[2]int]keptPart, members []int) [][]bool {
	if len(kept) == 0 {
		return nil
	}
	m := make([][]bool, len(members))
	any := false
	for ls, sorig := range members {
		m[ls] = make([]bool, len(members))
		for ld, dorig := range members {
			if _, ok := kept[[2]int{sorig, dorig}]; ok {
				m[ls][ld] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return m
}

// countSkips counts the true cells of a skip matrix.
func countSkips(m [][]bool) int {
	n := 0
	for _, row := range m {
		for _, b := range row {
			if b {
				n++
			}
		}
	}
	return n
}

// harvestKept updates the kept-partition set after a failed attempt. A
// stream (src, dst) becomes kept when the destination's watermark shows it
// complete — the end-of-stream marker arrived, so the destination holds the
// whole partition. A destination whose boot epoch advanced rebooted during
// the attempt: its memory is gone, so every partition it held is dropped.
// Pairs already kept from earlier attempts ran skipped (zero new rows) and
// retain their original payload accounting.
func harvestKept(kept map[[2]int]keptPart, res *BenchResult, members []int) {
	for ld, dorig := range members {
		if ld < len(res.Epochs) && res.Epochs[ld] > 1 {
			for _, sorig := range members {
				delete(kept, [2]int{sorig, dorig})
			}
			continue
		}
		if ld >= len(res.Progress) {
			continue
		}
		// All rows share one schema, so the attempt's byte/row ratio at this
		// destination recovers the per-partition byte count. Carried-forward
		// rows were folded in with the same width, so the ratio is unchanged.
		var width int64
		if ld < len(res.RowsPerNode) && res.RowsPerNode[ld] > 0 {
			width = res.BytesPerNode[ld] / res.RowsPerNode[ld]
		}
		for ls, sorig := range members {
			if ls >= len(res.Progress[ld]) {
				break
			}
			key := [2]int{sorig, dorig}
			if _, ok := kept[key]; ok {
				continue
			}
			if pp := res.Progress[ld][ls]; pp.Complete {
				kept[key] = keptPart{rows: pp.Rows, bytes: pp.Rows * width}
			}
		}
	}
}
