package cluster

import (
	"slices"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestAsymmetricPartitionSuspectsNotDead pins the fix for the split-brain
// false-death bug: under an asymmetric partition that hides node 2 from
// nodes {0,1,3} — a majority of the 5-node cluster — node 4 still hears 2,
// so 2 must be *suspected* by the cut-off side but never declared Dead().
// The old pure-majority rule would have declared it dead.
func TestAsymmetricPartitionSuspectsNotDead(t *testing.T) {
	c := New(fabric.FDR(), 5, 2, 11)
	c.Net.Faults().Add(fabric.FaultRule{
		Class: fabric.FaultPartition, GroupA: []int{2}, GroupB: []int{0, 1, 3},
		Asym:  true,
		Start: sim.Time(0).Add(time.Millisecond), End: sim.Time(0).Add(100 * time.Millisecond),
	})
	fd := c.InstallDetector()
	c.Sim.After(20*time.Millisecond, fd.Stop) // stop well before the heal
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	for _, i := range []int{0, 1, 3} {
		if !fd.suspected[i][2] {
			t.Fatalf("node %d should suspect the hidden node 2", i)
		}
	}
	if fd.suspected[4][2] {
		t.Fatal("node 4 hears node 2 and must not suspect it")
	}
	// The cut is one-way: node 2 still hears everyone.
	for _, j := range []int{0, 1, 3, 4} {
		if fd.suspected[2][j] {
			t.Fatalf("node 2 should still hear node %d (asymmetric cut)", j)
		}
	}
	if dead := fd.Dead(); len(dead) != 0 {
		t.Fatalf("Dead() = %v, want none: node 4's fresh heartbeat vetoes the majority", dead)
	}
	if sus := fd.suspected[0]; !slices.Equal(sus, []bool{false, false, true, false, false}) {
		t.Fatalf("node 0 suspects %v, want node 2 alone", sus)
	}
}

// TestPartitionHealClearsSuspicion runs a symmetric minority partition to
// its heal deadline: during the cut both sides suspect each other, and
// after the heal every suspicion is cleared.
func TestPartitionHealClearsSuspicion(t *testing.T) {
	c := New(fabric.FDR(), 4, 2, 11)
	c.Net.Faults().Add(fabric.FaultRule{
		Class: fabric.FaultPartition, GroupA: []int{1}, GroupB: []int{0, 2, 3},
		Start: sim.Time(0).Add(time.Millisecond), End: sim.Time(0).Add(10 * time.Millisecond),
	})
	fd := c.InstallDetector()
	c.Sim.After(30*time.Millisecond, fd.Stop)
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if fd.Detections == 0 {
		t.Fatal("the partition should have produced suspicions")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && fd.suspected[i][j] {
				t.Fatalf("suspicion %d->%d survived the heal", i, j)
			}
		}
	}
	if dead := fd.Dead(); len(dead) != 0 {
		t.Fatalf("Dead() = %v after heal, want none", dead)
	}
}

// TestRebootBumpsEpoch closes the loop between the fault plan and the epoch
// fence: when a reboot window ends, the detector bumps the rebooted node's
// device boot epoch (its memory came back empty) and clears the survivors'
// suspicions once heartbeats resume.
func TestRebootBumpsEpoch(t *testing.T) {
	c := New(fabric.FDR(), 3, 2, 11)
	c.Net.Faults().Add(fabric.FaultRule{
		Class: fabric.FaultReboot, To: 1,
		Start: sim.Time(0).Add(time.Millisecond), End: sim.Time(0).Add(8 * time.Millisecond),
	})
	fd := c.InstallDetector()
	c.Sim.After(20*time.Millisecond, fd.Stop)
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if got := c.Devs[1].Epoch(); got != 2 {
		t.Fatalf("rebooted node epoch = %d, want 2", got)
	}
	if got := c.Devs[0].Epoch(); got != 1 {
		t.Fatalf("untouched node epoch = %d, want 1", got)
	}
	if fd.suspected[0][1] || fd.suspected[2][1] {
		t.Fatal("suspicion of the rebooted node should clear once heartbeats resume")
	}
	if dead := fd.Dead(); len(dead) != 0 {
		t.Fatalf("Dead() = %v after reboot, want none", dead)
	}
}
