package cluster

import (
	"errors"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// failingMk returns a cluster builder whose every attempt loses UD
// datagrams, so the query fails deterministically each time.
func failingMk() func(attempt int) *Cluster {
	return func(attempt int) *Cluster {
		c := New(quiet(fabric.EDR()), 2, 4, 7)
		c.Sim.After(1, func() {
			c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 2})
		})
		return c
	}
}

func failingOpts() BenchOpts {
	return BenchOpts{
		Factory:     RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 4, DepletedTimeout: 5 * time.Millisecond}),
		RowsPerNode: 20_000,
	}
}

// TestRecoveryPolicyMaxRestartsZero gives the policy no restart budget: one
// attempt, zero restarts, immediate exhaustion.
func TestRecoveryPolicyMaxRestartsZero(t *testing.T) {
	pol := RecoveryPolicy{MaxRestarts: 0, BaseBackoff: time.Millisecond}
	r, err := pol.Run(failingMk(), failingOpts())
	if !errors.Is(err, ErrRecoveryExhausted) {
		t.Fatalf("err = %v, want ErrRecoveryExhausted", err)
	}
	if len(r.Attempts) != 1 || r.Restarts != 0 {
		t.Fatalf("attempts = %d restarts = %d, want 1 and 0", len(r.Attempts), r.Restarts)
	}
	if r.TotalVirtual != r.Attempts[0].Elapsed {
		t.Fatalf("TotalVirtual = %v, want exactly the single attempt %v (no backoff charged)",
			r.TotalVirtual, r.Attempts[0].Elapsed)
	}
}

// TestRecoveryPolicyMaxBackoffCaps runs a persistently failing query to
// exhaustion and pins the full backoff schedule against MaxBackoff, plus
// the Attempts/TotalVirtual accounting across every attempt.
func TestRecoveryPolicyMaxBackoffCaps(t *testing.T) {
	pol := RecoveryPolicy{MaxRestarts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	r, err := pol.Run(failingMk(), failingOpts())
	if !errors.Is(err, ErrRecoveryExhausted) {
		t.Fatalf("err = %v, want ErrRecoveryExhausted", err)
	}
	if len(r.Attempts) != 4 || r.Restarts != 3 {
		t.Fatalf("attempts = %d restarts = %d, want 4 and 3", len(r.Attempts), r.Restarts)
	}
	wantBackoffs := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	var wantTotal time.Duration
	for i, a := range r.Attempts {
		if a.Backoff != wantBackoffs[i] {
			t.Fatalf("attempt %d backoff = %v, want %v", i, a.Backoff, wantBackoffs[i])
		}
		if a.Err == nil {
			t.Fatalf("attempt %d unexpectedly succeeded", i)
		}
		wantTotal += a.Backoff + a.Elapsed
	}
	if r.TotalVirtual != wantTotal {
		t.Fatalf("TotalVirtual = %v, want %v", r.TotalVirtual, wantTotal)
	}
}
