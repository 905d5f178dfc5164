package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

func chaosOpts() ChaosOpts {
	return ChaosOpts{
		Prof: fabric.FDR(), Nodes: 3, Threads: 2,
		RowsPerNode: 8192, Seed: 11,
		Policy: RecoveryPolicy{
			MaxRestarts: 2,
			BaseBackoff: 500 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		},
	}
}

// TestChaosMatrix runs every algorithm of Table 1 under every fault class
// twice with the same seed, asserting (a) no simulation failure, (b) the
// recovery policy ends in success with every row delivered, (c) bitwise
// identical outcomes — the schedule is deterministic — and (d) the faults
// that must force a query restart actually do.
func TestChaosMatrix(t *testing.T) {
	opts := chaosOpts()
	want := int64(opts.Nodes) * int64(opts.RowsPerNode)
	for _, alg := range shuffle.Algorithms {
		for _, f := range ChaosFaults() {
			alg, f := alg, f
			t.Run(alg.Name+"/"+f.Name, func(t *testing.T) {
				o1, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed: %v", err)
				}
				o2, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed on repeat: %v", err)
				}
				if o1 != o2 {
					t.Fatalf("nondeterministic outcome:\n  %+v\n  %+v", o1, o2)
				}
				if o1.Failed {
					t.Fatalf("recovery did not converge: %s", o1.Err)
				}
				if o1.Rows != want {
					t.Fatalf("rows = %d, want %d (restarts %d)", o1.Rows, want, o1.Restarts)
				}
				udAlg := alg.Impl == shuffle.SQSR
				if f.Name == "ud-loss" && udAlg && o1.Restarts == 0 {
					t.Fatalf("UD datagram loss should force a restart of %s", alg.Name)
				}
				if f.Name == "rc-outage" && !udAlg && o1.Restarts == 0 {
					t.Fatalf("RC outage should force a restart of %s", alg.Name)
				}
				if (f.Name == "degrade" || f.Name == "pause" || f.Name == "corrupt") && o1.Restarts != 0 {
					t.Fatalf("survivable fault %s restarted %s %d time(s): %+v",
						f.Name, alg.Name, o1.Restarts, o1)
				}
			})
		}
	}
}

// TestChaosCrashMatrix runs every Table 1 algorithm under every crash-stop
// scenario twice with the same seed. A crash must (a) never panic or
// deadlock the simulation, (b) be detected by the heartbeat detector within
// the documented (hbSuspect+2)*hbPeriod bound — not by waiting out an endpoint
// stall timeout — (c) force exactly one membership-shrinking restart that
// completes on the survivors with the full surviving-membership row totals,
// and (d) yield bitwise identical outcomes on a repeat run.
func TestChaosCrashMatrix(t *testing.T) {
	opts := chaosOpts()
	for _, alg := range shuffle.Algorithms {
		for _, f := range ChaosCrashFaults() {
			alg, f := alg, f
			t.Run(alg.Name+"/"+f.Name, func(t *testing.T) {
				o1, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed: %v", err)
				}
				o2, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed on repeat: %v", err)
				}
				if o1 != o2 {
					t.Fatalf("nondeterministic outcome:\n  %+v\n  %+v", o1, o2)
				}
				if o1.Failed {
					t.Fatalf("recovery did not converge: %s", o1.Err)
				}
				if o1.Restarts == 0 {
					t.Fatalf("a crash must force a restart: %+v", o1)
				}
				survivors := opts.Nodes - 1
				if o1.Members != survivors {
					t.Fatalf("final membership = %d, want %d survivors", o1.Members, survivors)
				}
				want := int64(survivors) * int64(opts.RowsPerNode)
				if f.Groups != nil { // broadcast: every survivor gets every row
					want *= int64(survivors)
				}
				if o1.Rows != want {
					t.Fatalf("rows = %d, want %d on the surviving membership", o1.Rows, want)
				}
				if o1.Detections == 0 {
					t.Fatalf("crash went undetected: %+v", o1)
				}
				const bound = (hbSuspect + 2) * hbPeriod
				if o1.MaxDetect <= 0 || o1.MaxDetect > bound {
					t.Fatalf("detection latency %v outside (0, %v]", o1.MaxDetect, bound)
				}
			})
		}
	}
}

// TestChaosTransientMatrix runs every Table 1 algorithm under every
// transient-fault scenario (bounded reboots, healing partitions) twice with
// the same seed. Every cell must (a) never fail the simulation, (b) end in
// success within the restart budget with exact cluster-wide row totals —
// partial restarts fold the kept partitions back in, so the delivered rows
// are identical to a fault-free run — and (c) be bitwise deterministic.
// Scenario-specific clauses pin the membership semantics: an asymmetric cut
// or a bounded reboot never shrinks the membership, while the symmetric
// minority cut is convicted and excluded like a crash.
func TestChaosTransientMatrix(t *testing.T) {
	opts := chaosOpts()
	fullRows := int64(opts.Nodes) * int64(opts.RowsPerNode)
	for _, alg := range shuffle.Algorithms {
		for _, f := range ChaosTransientFaults() {
			alg, f := alg, f
			t.Run(alg.Name+"/"+f.Name, func(t *testing.T) {
				o1, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed: %v", err)
				}
				o2, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed on repeat: %v", err)
				}
				if o1 != o2 {
					t.Fatalf("nondeterministic outcome:\n  %+v\n  %+v", o1, o2)
				}
				if o1.Failed {
					t.Fatalf("recovery did not converge: %s", o1.Err)
				}
				// Every restart accounts for all Members^2 partitions, either
				// kept or re-streamed.
				if all := o1.Members * o1.Members * o1.Restarts; o1.PartitionsKept+o1.PartitionsRestreamed != all {
					t.Fatalf("kept %d + restreamed %d != %d partitions over %d restart(s)",
						o1.PartitionsKept, o1.PartitionsRestreamed, all, o1.Restarts)
				}
				switch f.Name {
				case "partition-minority":
					// Unreachable from every majority node in both directions:
					// no witness can veto, so the conviction stands and the
					// restart re-plans over the survivors.
					survivors := opts.Nodes - 1
					if o1.Members != survivors || o1.Restarts == 0 {
						t.Fatalf("minority cut must shrink to %d survivors via a restart: %+v", survivors, o1)
					}
					if want := int64(survivors) * int64(opts.RowsPerNode); o1.Rows != want {
						t.Fatalf("rows = %d, want %d on the survivors", o1.Rows, want)
					}
					if o1.Detections == 0 {
						t.Fatalf("partition went unsuspected: %+v", o1)
					}
				case "partition-asymmetric":
					// One-way cut: a single suspect is not a majority, so the
					// membership survives intact and the restart is partial —
					// strictly fewer partitions re-streamed than a full
					// restart of the same attempts.
					if o1.Members != opts.Nodes || o1.Restarts == 0 {
						t.Fatalf("asymmetric cut must restart on full membership: %+v", o1)
					}
					if o1.Rows != fullRows {
						t.Fatalf("rows = %d, want %d", o1.Rows, fullRows)
					}
					if o1.PartitionsKept == 0 {
						t.Fatalf("asymmetric cut must allow a partial restart: %+v", o1)
					}
					if full := o1.Members * o1.Members * o1.Restarts; o1.PartitionsRestreamed >= full {
						t.Fatalf("partial restart re-streamed %d of %d partitions: %+v",
							o1.PartitionsRestreamed, full, o1)
					}
					if o1.Detections == 0 {
						t.Fatalf("cut went unsuspected: %+v", o1)
					}
				default: // reboot-setup, reboot-stream
					// A bounded reboot is never a conviction: the membership
					// stays whole whether the NIC-level recovery absorbs the
					// window or epoch fencing forces a restart.
					if o1.Members != opts.Nodes {
						t.Fatalf("reboot shrank the membership: %+v", o1)
					}
					if o1.Rows != fullRows {
						t.Fatalf("rows = %d, want %d", o1.Rows, fullRows)
					}
				}
			})
		}
	}
}

// TestChaosRebootForcesRestart pins that the reboot scenarios do exercise
// the failure path: across Table 1, at least one algorithm is forced to
// restart by a setup-window reboot and at least one by a mid-stream reboot
// (which algorithm absorbs which window is a deterministic function of its
// setup time). Recovery must stay bounded either way.
func TestChaosRebootForcesRestart(t *testing.T) {
	opts := chaosOpts()
	restarted := map[string]bool{}
	for _, alg := range shuffle.Algorithms {
		for _, f := range ChaosTransientFaults()[:2] {
			o, err := RunChaos(alg, f, opts)
			if err != nil {
				t.Fatalf("%s/%s: simulation failed: %v", alg.Name, f.Name, err)
			}
			if o.Failed {
				t.Fatalf("%s/%s: recovery did not converge: %s", alg.Name, f.Name, o.Err)
			}
			if o.Restarts > 0 {
				restarted[f.Name] = true
			}
		}
	}
	for _, name := range []string{"reboot-setup", "reboot-stream"} {
		if !restarted[name] {
			t.Errorf("no algorithm restarted under %s; the scenario exercises nothing", name)
		}
	}
}

// TestPartitionSmoke is the race-enabled CI smoke cell (make
// partition-smoke): one mid-stream reboot and one asymmetric partition of
// the baseline algorithm, asserting graceful bounded recovery and — for the
// partition — a partial restart that re-streams strictly fewer partitions
// than a full restart would.
func TestPartitionSmoke(t *testing.T) {
	opts := chaosOpts()
	fullRows := int64(opts.Nodes) * int64(opts.RowsPerNode)
	alg := shuffle.Algorithms[0] // MEMQ/SR
	faults := ChaosTransientFaults()
	reboot, asym := faults[1], faults[3]

	o, err := RunChaos(alg, reboot, opts)
	if err != nil {
		t.Fatalf("reboot cell: simulation failed: %v", err)
	}
	if o.Failed || o.Rows != fullRows || o.Members != opts.Nodes {
		t.Fatalf("reboot cell did not recover gracefully: %+v", o)
	}

	o, err = RunChaos(alg, asym, opts)
	if err != nil {
		t.Fatalf("partition cell: simulation failed: %v", err)
	}
	if o.Failed || o.Rows != fullRows || o.Members != opts.Nodes {
		t.Fatalf("partition cell did not recover gracefully: %+v", o)
	}
	if o.Restarts == 0 || o.PartitionsKept == 0 {
		t.Fatalf("partition cell must recover via a partial restart: %+v", o)
	}
	if full := o.Members * o.Members * o.Restarts; o.PartitionsRestreamed >= full {
		t.Fatalf("partial restart re-streamed %d of %d partitions: %+v", o.PartitionsRestreamed, full, o)
	}
}

// TestChaosCrashExhaustsDiagnosably disallows restarts entirely: the crash
// attempt's error must surface as a diagnosable ErrPeerFailed chain naming
// the dead node, wrapped in ErrRecoveryExhausted — never a bare stall.
func TestChaosCrashExhaustsDiagnosably(t *testing.T) {
	opts := chaosOpts()
	opts.Policy.MaxRestarts = 0
	alg := shuffle.Algorithms[0]
	o, err := RunChaos(alg, ChaosCrashFaults()[0], opts)
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if !o.Failed {
		t.Fatalf("crash with no restart budget must fail: %+v", o)
	}
	if !strings.Contains(o.Err, "recovery exhausted") || !strings.Contains(o.Err, "peer node failed") {
		t.Fatalf("terminal error not diagnosable: %q", o.Err)
	}
	// The only attempt ran on full membership; the detected death shows up
	// in the detector metrics, not a shrunken final membership.
	if o.Members != opts.Nodes || o.Detections == 0 {
		t.Fatalf("detection bookkeeping wrong: %+v", o)
	}
}

// TestMembershipRecoveryAttempts pins the bookkeeping of a crash recovery:
// attempt 0 on full membership fails with ErrPeerFailed, attempt 1 runs on
// the survivors and succeeds.
func TestMembershipRecoveryAttempts(t *testing.T) {
	mr := MembershipRecovery{
		Policy: RecoveryPolicy{MaxRestarts: 2, BaseBackoff: time.Millisecond},
	}
	cfg := shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2, DepletedTimeout: 10 * time.Millisecond,
		StallTimeout: 120 * time.Millisecond}
	r, err := mr.Run(3, func(attempt, members int) *Cluster {
		c := New(fabric.FDR(), members, 2, 11)
		if attempt == 0 {
			c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultCrash, To: 1})
		}
		return c
	}, BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: 4096})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if r.Restarts != 1 || len(r.Attempts) != 2 {
		t.Fatalf("restarts = %d attempts = %d, want 1 and 2", r.Restarts, len(r.Attempts))
	}
	if !errors.Is(r.Attempts[0].Err, shuffle.ErrPeerFailed) {
		t.Fatalf("attempt 0 error = %v, want ErrPeerFailed", r.Attempts[0].Err)
	}
	if got := r.Attempts[0].Membership; len(got) != 3 {
		t.Fatalf("attempt 0 membership = %v, want the full cluster", got)
	}
	if got := r.Attempts[1].Membership; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("attempt 1 membership = %v, want [0 2]", got)
	}
	if r.Attempts[1].Err != nil || r.Attempts[1].Backoff != time.Millisecond {
		t.Fatalf("attempt 1 = %+v, want success after 1ms backoff", r.Attempts[1])
	}
	if r.Detections == 0 || r.MaxDetect <= 0 {
		t.Fatalf("detector metrics missing: %+v", r)
	}
}

// TestChaosPersistentFaultGivesUp arms the same fault on every attempt: the
// recovery policy must exhaust its restart budget and report a clean,
// diagnosable terminal error instead of hanging or panicking.
func TestChaosPersistentFaultGivesUp(t *testing.T) {
	persistent := ChaosFault{Name: "persistent-ud-loss", Install: func(c *Cluster, attempt int) {
		c.Net.Faults().Add(fabric.FaultRule{
			Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 3,
		})
	}}
	opts := chaosOpts()
	o, err := RunChaos(shuffle.Algorithm{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true}, persistent, opts)
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if !o.Failed {
		t.Fatalf("persistent fault should exhaust recovery: %+v", o)
	}
	if o.Restarts != opts.Policy.MaxRestarts {
		t.Fatalf("restarts = %d, want %d", o.Restarts, opts.Policy.MaxRestarts)
	}
	if !strings.Contains(o.Err, "recovery exhausted") {
		t.Fatalf("terminal error not diagnosable: %q", o.Err)
	}
}

// TestRecoveryPolicyBackoff pins the exponential backoff schedule.
func TestRecoveryPolicyBackoff(t *testing.T) {
	pol := RecoveryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	want := []time.Duration{1, 2, 4, 4, 4}
	for i, w := range want {
		if got := pol.backoff(i); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if none := (RecoveryPolicy{}).backoff(3); none != 0 {
		t.Fatalf("zero policy backoff = %v, want 0", none)
	}
}

// TestRecoveryPolicyRecordsAttempts checks the per-restart metrics: one
// failed attempt with a backoff before the successful retry.
func TestRecoveryPolicyRecordsAttempts(t *testing.T) {
	mk := func(attempt int) *Cluster {
		c := New(quiet(fabric.EDR()), 2, 4, 7)
		if attempt == 0 {
			c.Sim.After(1, func() {
				c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 2})
			})
		}
		return c
	}
	pol := RecoveryPolicy{MaxRestarts: 3, BaseBackoff: time.Millisecond}
	r, err := pol.Run(mk, BenchOpts{
		Factory:     RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 4, DepletedTimeout: 5 * time.Millisecond}),
		RowsPerNode: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Restarts != 1 || len(r.Attempts) != 2 {
		t.Fatalf("restarts = %d attempts = %d, want 1 and 2", r.Restarts, len(r.Attempts))
	}
	if !errors.Is(r.Attempts[0].Err, shuffle.ErrDataLoss) {
		t.Fatalf("first attempt error = %v, want data loss", r.Attempts[0].Err)
	}
	if r.Attempts[1].Err != nil || r.Attempts[1].Backoff != time.Millisecond {
		t.Fatalf("second attempt = %+v, want success after 1ms backoff", r.Attempts[1])
	}
	if wantTotal := r.Attempts[0].Elapsed + r.Attempts[1].Elapsed + time.Millisecond; r.TotalVirtual != wantTotal {
		t.Fatalf("TotalVirtual = %v, want %v", r.TotalVirtual, wantTotal)
	}
}
