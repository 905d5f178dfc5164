package fabric

import (
	"testing"
	"time"

	"rshuffle/internal/sim"
)

// TestFaultCrashSilencesNode checks the crash-stop contract: from the crash
// instant, traffic INTO the node vanishes (even infrastructure transfers
// with no Dropped handler), traffic FROM the node vanishes on the wire
// while the sender still observes its local send completion, and traffic
// between two healthy nodes is untouched.
func TestFaultCrashSilencesNode(t *testing.T) {
	s := sim.New(1)
	n := New(s, quietProfile(), 3)
	n.Faults().Add(FaultRule{Class: FaultCrash, To: 1, Start: sim.Time(time.Millisecond)})

	var delivered, dropped, sent, healthy int
	tx := func(from, to int, withDrop bool) {
		m := &Message{
			From: from, To: to, FromQP: 1, ToQP: 2, Payload: 4096, Service: RC,
			Deliver: func(at sim.Time) {
				if from == 0 && to == 2 {
					healthy++
				} else {
					delivered++
				}
			},
			Sent: func(at sim.Time) { sent++ },
		}
		if withDrop {
			m.Dropped = func() { dropped++ }
		}
		n.Transmit(m)
	}
	s.At(sim.Time(2*time.Millisecond), func() {
		tx(0, 1, true)  // into the crashed node: dropped, retry machinery told
		tx(0, 1, false) // infrastructure transfer into it: silently gone
		tx(1, 2, true)  // from the crashed node: local send completes, wire eats it
		tx(0, 2, true)  // between survivors: unaffected
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("crashed node exchanged %d message(s)", delivered)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (one each way with a Dropped handler)", dropped)
	}
	if sent != 4 {
		t.Fatalf("sent = %d, want 4: local completions fire regardless of the remote fate", sent)
	}
	if healthy != 1 {
		t.Fatalf("survivor-to-survivor message lost: healthy = %d", healthy)
	}
}

// TestFaultCrashBeforeStartDelivers sends before the crash instant: the
// message is in flight while the node is still up and must arrive.
func TestFaultCrashBeforeStartDelivers(t *testing.T) {
	s := sim.New(1)
	n := New(s, quietProfile(), 2)
	n.Faults().Add(FaultRule{Class: FaultCrash, To: 1, Start: sim.Time(time.Second)})
	got := 0
	n.Transmit(&Message{
		From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 4096, Service: RC,
		Deliver: func(at sim.Time) { got++ },
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("pre-crash message not delivered")
	}
}

// TestFaultCrashMulticast checks the two multicast halves: a crashed sender
// reaches nobody (not even its own switch-loopback copy), and a crashed
// member's copy vanishes while the rest of the group still receives.
func TestFaultCrashMulticast(t *testing.T) {
	s := sim.New(1)
	n := New(s, quietProfile(), 3)
	n.Faults().Add(FaultRule{Class: FaultCrash, To: 1, Start: 0})

	reached := map[int]int{}
	dests := []int{0, 1, 2}
	// Healthy sender 0: members 0 and 2 receive, crashed member 1 does not.
	n.TransmitMulticast(&Message{From: 0, FromQP: 1, ToQP: 2, Payload: 2048, Service: UD},
		dests, func(dest int, at sim.Time) { reached[dest]++ })
	// Crashed sender 1: nobody receives.
	n.TransmitMulticast(&Message{From: 1, FromQP: 1, ToQP: 2, Payload: 2048, Service: UD},
		dests, func(dest int, at sim.Time) { reached[10+dest]++ })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reached[0] != 1 || reached[2] != 1 || reached[1] != 0 {
		t.Fatalf("healthy multicast reached %v, want members 0 and 2 only", reached)
	}
	for d := 10; d <= 12; d++ {
		if reached[d] != 0 {
			t.Fatalf("crashed sender's multicast reached member %d", d-10)
		}
	}
}

// TestCrashedAndCrashTime covers the crash introspection the failure
// detector relies on: Down from the crash instant on, for good, and DownTime
// naming that instant.
func TestCrashedAndCrashTime(t *testing.T) {
	s := sim.New(1)
	n := New(s, quietProfile(), 2)
	if n.Down(1, sim.Time(time.Hour)) {
		t.Fatalf("empty plan reports a crash")
	}
	at := sim.Time(3 * time.Millisecond)
	n.Faults().Add(FaultRule{Class: FaultCrash, To: 1, Start: at})
	if n.Down(1, at-1) || !n.Down(1, at) || !n.Down(1, sim.Time(time.Hour)) || n.Down(0, at) {
		t.Fatalf("Down window wrong around %v", at)
	}
	if ct, ok := n.DownTime(1); !ok || ct != at {
		t.Fatalf("DownTime(1) = %v,%v, want %v,true", ct, ok, at)
	}
	if _, ok := n.DownTime(0); ok {
		t.Fatalf("DownTime(0) reported for a healthy node")
	}
}

// TestOpenEndedPausePanics is the regression for a silent misconfiguration:
// a FaultPause with neither an End nor a duty cycle used to be accepted and
// then ignored by the pause-window arithmetic. It must panic at Add time
// and point the caller at FaultCrash.
func TestOpenEndedPausePanics(t *testing.T) {
	expectPanic := func(name string, r FaultRule) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Add accepted an invalid rule", name)
			}
		}()
		s := sim.New(1)
		New(s, quietProfile(), 2).Faults().Add(r)
	}
	expectPanic("open-ended pause", FaultRule{Class: FaultPause, To: 0})
	expectPanic("crash with AnyNode", FaultRule{Class: FaultCrash, To: AnyNode})
	expectPanic("crash with End", FaultRule{Class: FaultCrash, To: 1, End: sim.Time(time.Second)})
	expectPanic("crash with Count", FaultRule{Class: FaultCrash, To: 1, Count: 3})

	// The two bounded pause forms must still be accepted.
	s := sim.New(1)
	n := New(s, quietProfile(), 2)
	n.Faults().Add(FaultRule{Class: FaultPause, To: 0, End: sim.Time(time.Second)})
	n.Faults().Add(FaultRule{Class: FaultPause, To: 0, Period: time.Millisecond, OnFor: 100 * time.Microsecond})
}
