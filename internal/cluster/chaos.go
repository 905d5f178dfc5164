// Chaos harness: deterministic fault-injection runs across the shuffle
// algorithms. Every scenario is a FaultPlan schedule evaluated against the
// simulation clock, so a (profile, algorithm, fault, seed) tuple always
// yields the same outcome — either a clean recovery through the
// RecoveryPolicy or a clean, diagnosable terminal error, never a panic or
// an undetected deadlock.
package cluster

import (
	"errors"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// ChaosFault is one fault-injection scenario: Install arms the fault plan
// of a freshly booted cluster for the given attempt. Transient faults arm
// only attempt 0 — by the time the query restarts the fault has cleared —
// while persistent-but-survivable faults (degraded links, stragglers,
// CRC-caught corruption) arm every attempt.
type ChaosFault struct {
	Name    string
	Install func(c *Cluster, attempt int)
	// Crash marks a crash-stop scenario: RunChaos arms the heartbeat
	// failure detector and recovers through MembershipRecovery, so the
	// restart runs on the surviving membership instead of retrying the full
	// cluster against a dead node.
	Crash bool
	// Groups overrides the transmission pattern per cluster size; nil means
	// repartition. Crash scenarios use it to re-plan broadcast trees over
	// the survivors.
	Groups func(n int) shuffle.Groups
}

// ChaosFaults returns the standard fault matrix of the chaos harness. The
// victim links involve node 1 (or node 0 for the straggler pause) so every
// scenario hits both a sending and a receiving fragment.
func ChaosFaults() []ChaosFault {
	return []ChaosFault{
		// Deterministically swallow a few datagrams into node 1: the UD
		// designs detect the count mismatch (§4.4.2) and restart; the RC
		// designs carry no UD traffic and pass untouched.
		{Name: "ud-loss", Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 3,
			})
		}},
		// Kill every RC packet into node 1 for the whole first attempt: the
		// sender NICs retransmit until retry_cnt is exhausted, the Queue
		// Pairs enter the Error state, and the fragments fail over to a
		// restart. UD traffic is unaffected.
		{Name: "rc-outage", Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultRCLoss, From: fabric.AnyNode, To: 1,
			})
		}},
		// Quarter the bandwidth of every link into node 1 for the whole
		// run: the query must still complete, only slower.
		{Name: "degrade", Install: func(c *Cluster, attempt int) {
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultDegrade, From: fabric.AnyNode, To: 1, Factor: 0.25,
			})
		}},
		// Freeze node 0's NIC for 300us out of every 2ms — a GC-like
		// straggler. Lossless, so the query completes without restarts.
		{Name: "pause", Install: func(c *Cluster, attempt int) {
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultPause, From: fabric.AnyNode, To: 0,
				Period: 2 * time.Millisecond, OnFor: 300 * time.Microsecond,
			})
		}},
		// Flap the link into node 1 during the first 3ms of attempt 0: RC
		// packets sent inside a 120us outage burst are lost and retried
		// 400us later, outside the burst, so the NIC-level recovery usually
		// absorbs the fault without erroring the QP.
		{Name: "flap", Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultRCLoss, From: fabric.AnyNode, To: 1,
				End:    sim.Time(3 * time.Millisecond),
				Period: time.Millisecond, OnFor: 120 * time.Microsecond,
			})
		}},
		// Corrupt one packet of the next five RC messages into node 1: the
		// link-level CRC catches each one and the retransmit costs a packet
		// serialization plus a round trip — invisible above the fabric.
		{Name: "corrupt", Install: func(c *Cluster, attempt int) {
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultCorrupt, From: fabric.AnyNode, To: 1, Count: 5,
			})
		}},
	}
}

// ChaosCrashFaults returns the crash-stop scenarios: a node's NIC dies
// permanently (control lane included) and the cluster must detect it,
// tear down the affected connections, and finish on the survivors. The
// crash arms only attempt 0 — the restarted query excludes the dead node,
// so the fault has nothing left to hit.
func ChaosCrashFaults() []ChaosFault {
	// midStream arms the crash a moment after the query starts streaming
	// (AtBenchStart), since the absolute setup cost varies per algorithm.
	midStream := func(victim int) func(c *Cluster, attempt int) {
		return func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.AtBenchStart(func() {
				c.Net.Faults().Add(fabric.FaultRule{
					Class: fabric.FaultCrash, To: victim,
					Start: c.Sim.Now().Add(40 * time.Microsecond),
				})
			})
		}
	}
	return []ChaosFault{
		// Node 1 is dead before connection setup even begins: no data ever
		// flows to or from it, and the survivors' first sends block on
		// credit until the detector declares it down.
		{Name: "crash-setup", Crash: true, Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultCrash, To: 1})
		}},
		// Node 1 dies while the shuffle is streaming: in-flight messages to
		// and from it vanish and every endpoint pair involving it must
		// drain partially-transferred state.
		{Name: "crash-stream", Crash: true, Install: midStream(1)},
		// A broadcast root dies mid-stream: every survivor both loses a
		// source and loses a destination of its own broadcast, and the
		// restart re-plans the broadcast group over the survivors.
		{Name: "crash-root", Crash: true, Install: midStream(0), Groups: shuffle.Broadcast},
	}
}

// ChaosTransientFaults returns the transient-failure scenarios: bounded
// reboot windows (the port goes dark and comes back with its memory wiped)
// and network partitions with a heal deadline. All are crash-aware — the
// heartbeat detector is armed — because telling a transient outage apart
// from a crash-stop is exactly the detector's job: a reboot or an
// asymmetric cut must end in suspicion and a partial restart, while only
// the symmetric minority cut that outlives the attempt is convicted and
// excluded like a crash.
func ChaosTransientFaults() []ChaosFault {
	return []ChaosFault{
		// Node 1's port is dark from boot until 600us in: connection setup
		// and any early traffic ride through NIC retransmission, and once the
		// detector observes the down->up transition it bumps node 1's boot
		// epoch, fencing every Queue Pair connected before the reboot.
		{Name: "reboot-setup", Crash: true, Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultReboot, To: 1,
				End: sim.Time(600 * time.Microsecond),
			})
		}},
		// Node 1 reboots mid-stream: in-flight traffic both ways is lost for
		// 800us, its received partial partitions are wiped (epoch bump), and
		// the restart may keep only partitions held by the other nodes.
		{Name: "reboot-stream", Crash: true, Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.AtBenchStart(func() {
				start := c.Sim.Now().Add(40 * time.Microsecond)
				c.Net.Faults().Add(fabric.FaultRule{
					Class: fabric.FaultReboot, To: 1,
					Start: start, End: start.Add(800 * time.Microsecond),
				})
			})
		}},
		// Symmetric minority partition that outlives the attempt: node 1 is
		// unreachable in both directions, so no witness can veto and the
		// majority convicts it — the restart re-plans over the survivors,
		// exactly as if it had crashed.
		{Name: "partition-minority", Crash: true, Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.AtBenchStart(func() {
				rest := make([]int, 0, c.N-1)
				for a := 0; a < c.N; a++ {
					if a != 1 {
						rest = append(rest, a)
					}
				}
				start := c.Sim.Now().Add(40 * time.Microsecond)
				c.Net.Faults().Add(fabric.FaultRule{
					Class: fabric.FaultPartition, GroupA: []int{1}, GroupB: rest,
					Start: start, End: start.Add(80 * time.Millisecond),
				})
			})
		}},
		// Asymmetric cut of the single link direction 1->0, healing within
		// the attempt: only node 0 suspects node 1, so there is no majority
		// and no conviction — the membership survives intact and the restart
		// is partial, re-streaming strictly fewer partitions than a full
		// restart because the unaffected streams completed before the
		// failure was declared.
		{Name: "partition-asymmetric", Crash: true, Install: func(c *Cluster, attempt int) {
			if attempt > 0 {
				return
			}
			c.AtBenchStart(func() {
				start := c.Sim.Now().Add(40 * time.Microsecond)
				c.Net.Faults().Add(fabric.FaultRule{
					Class: fabric.FaultPartition, GroupA: []int{1}, GroupB: []int{0},
					Asym: true, Start: start, End: start.Add(8 * time.Millisecond),
				})
			})
		}},
	}
}

// ChaosOpts configures one chaos run.
type ChaosOpts struct {
	Prof           fabric.Profile
	Nodes, Threads int
	RowsPerNode    int
	Seed           int64
	Policy         RecoveryPolicy
}

// ChaosOutcome is the deterministic summary of one chaos run: with equal
// ChaosOpts and fault, two runs produce identical outcomes.
type ChaosOutcome struct {
	Alg, Fault string
	// Restarts is the number of query restarts the recovery policy ran.
	Restarts int
	// Failed and Err report a terminal failure after recovery gave up; Err
	// is the diagnosable error text, empty on success.
	Failed bool
	Err    string
	// Rows is the cluster-wide row count delivered by the final attempt.
	Rows int64
	// Elapsed is the final attempt's response time; TotalVirtual sums every
	// attempt and backoff.
	Elapsed      sim.Duration
	TotalVirtual sim.Duration
	// Members is the surviving-membership size of the final attempt (equal
	// to Nodes unless a crash shrank the cluster).
	Members int
	// Detections counts failure-detector suspicion events across all
	// attempts; MaxDetect is the worst crash-to-suspicion latency. Both are
	// zero for non-crash scenarios.
	Detections int
	MaxDetect  sim.Duration
	// PartitionsKept and PartitionsRestreamed count the (source,
	// destination) partitions restart attempts skipped versus streamed
	// again. A full restart re-streams Members*Members partitions per
	// attempt; a partial restart keeps the ones whose end-of-stream marker
	// was already delivered.
	PartitionsKept, PartitionsRestreamed int
}

// RunChaos runs one algorithm under one fault scenario with the given
// recovery policy. The returned error is non-nil only for harness-level
// failures (a simulation deadlock) — a query that exhausts its restart
// budget is reported through ChaosOutcome.Failed, not the error.
func RunChaos(alg shuffle.Algorithm, fault ChaosFault, o ChaosOpts) (ChaosOutcome, error) {
	cfg := alg.Config(o.Threads)
	// Tight timeouts keep failed attempts short in virtual time: a dead
	// connection is declared after ~tens of milliseconds instead of the
	// interactive-scale defaults.
	cfg.DepletedTimeout = 10 * time.Millisecond
	cfg.StallTimeout = 120 * time.Millisecond
	out := ChaosOutcome{Alg: alg.Name, Fault: fault.Name, Members: o.Nodes}
	bopts := BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: o.RowsPerNode, GroupsFn: fault.Groups}
	var r *RecoveryResult
	var err error
	if fault.Crash {
		mr := MembershipRecovery{Policy: o.Policy}
		r, err = mr.Run(o.Nodes, func(attempt, members int) *Cluster {
			c := New(o.Prof, members, o.Threads, o.Seed)
			fault.Install(c, attempt)
			return c
		}, bopts)
	} else {
		r, err = o.Policy.Run(func(attempt int) *Cluster {
			c := New(o.Prof, o.Nodes, o.Threads, o.Seed)
			fault.Install(c, attempt)
			return c
		}, bopts)
	}
	if err != nil && !errors.Is(err, ErrRecoveryExhausted) {
		return out, err
	}
	out.Restarts = r.Restarts
	out.TotalVirtual = r.TotalVirtual
	out.Detections = r.Detections
	out.MaxDetect = r.MaxDetect
	out.PartitionsKept = r.PartitionsKept
	out.PartitionsRestreamed = r.PartitionsRestreamed
	if n := len(r.Attempts); n > 0 && r.Attempts[n-1].Membership != nil {
		out.Members = len(r.Attempts[n-1].Membership)
	}
	if r.BenchResult != nil {
		out.Elapsed = r.Elapsed
		for _, n := range r.RowsPerNode {
			out.Rows += n
		}
	}
	if err != nil {
		out.Failed, out.Err = true, err.Error()
	}
	return out, nil
}
