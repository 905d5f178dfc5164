package cluster

import (
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// detectorRig boots a cluster, optionally crashes a node, lets the detector
// run for the given virtual time with no workload, and returns it.
func detectorRig(t *testing.T, crashNode int, crashAt, runFor sim.Duration) *Detector {
	t.Helper()
	c := New(fabric.FDR(), 3, 2, 11)
	if crashNode >= 0 {
		c.Net.Faults().Add(fabric.FaultRule{
			Class: fabric.FaultCrash, To: crashNode, Start: sim.Time(crashAt),
		})
	}
	fd := c.InstallDetector()
	c.Sim.After(runFor, fd.Stop)
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	return fd
}

// TestDetectorSuspectsCrashedNode crashes node 1 and checks that both
// survivors suspect it within the documented (hbSuspect+2)*hbPeriod bound, that
// the majority rule declares exactly node 1 dead, and that the crashed node
// itself — hearing nothing — suspects everyone without polluting Dead.
func TestDetectorSuspectsCrashedNode(t *testing.T) {
	fd := detectorRig(t, 1, time.Millisecond, 20*time.Millisecond)
	if !fd.suspected[0][1] || !fd.suspected[2][1] {
		t.Fatalf("survivors did not suspect the crashed node")
	}
	if !fd.suspected[1][0] || !fd.suspected[1][2] {
		t.Fatalf("crashed node should suspect the silent world")
	}
	if dead := fd.Dead(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("Dead() = %v, want [1]", dead)
	}
	if fd.Detections != 4 {
		t.Fatalf("Detections = %d, want 4 (2 survivors x node 1, node 1 x 2 peers)", fd.Detections)
	}
	const bound = (hbSuspect + 2) * hbPeriod
	if fd.MaxDetectionLatency <= 0 || fd.MaxDetectionLatency > bound {
		t.Fatalf("MaxDetectionLatency = %v, want in (0, %v]", fd.MaxDetectionLatency, bound)
	}
}

// TestDetectorQuietWithoutCrash runs a healthy cluster: no suspicion, no
// declared deaths, zero latency.
func TestDetectorQuietWithoutCrash(t *testing.T) {
	fd := detectorRig(t, -1, 0, 20*time.Millisecond)
	if fd.Detections != 0 || len(fd.Dead()) != 0 || fd.MaxDetectionLatency != 0 {
		t.Fatalf("healthy cluster produced detections: %d dead=%v lat=%v",
			fd.Detections, fd.Dead(), fd.MaxDetectionLatency)
	}
}

// TestDetectorNotifiesDevice checks the detector-to-verbs wiring: once a
// survivor suspects the crashed peer its device reports PeerDown.
func TestDetectorNotifiesDevice(t *testing.T) {
	c := New(fabric.FDR(), 3, 2, 11)
	c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultCrash, To: 2})
	fd := c.InstallDetector()
	c.Sim.After(20*time.Millisecond, fd.Stop)
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if !c.Devs[0].PeerDown(2) || !c.Devs[1].PeerDown(2) {
		t.Fatalf("survivor devices were not told the peer is down")
	}
	if c.Devs[0].PeerDown(1) {
		t.Fatalf("live peer wrongly declared down")
	}
}

// TestDetectorHorizon stops the detector on its own once the horizon
// passes, so a wedged simulation does not tick forever.
func TestDetectorHorizon(t *testing.T) {
	c := New(fabric.FDR(), 2, 2, 11)
	c.InstallDetector()
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	now := c.Sim.Now()
	if now.Sub(0) < hbHorizon || now.Sub(0) > hbHorizon+2*hbPeriod {
		t.Fatalf("detector stopped at %v, want right after the %v horizon", now.Sub(0), hbHorizon)
	}
}
