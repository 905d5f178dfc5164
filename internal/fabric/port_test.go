package fabric

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rshuffle/internal/sim"
)

// TestTransmitAllocationGuard re-transmits each of a set of Messages from
// its own Deliver, as the benchmark's fabric.transmit_allocs probe does:
// the fabric schedules the Message itself at every stage of its way and
// keeps the flight in it, so once the event free list is warm a
// transmission allocates nothing. A UD message with a Sent callback takes
// the stage the RC one skips.
func TestTransmitAllocationGuard(t *testing.T) {
	for _, svc := range []Service{RC, UD} {
		s := sim.New(1)
		n := New(s, quietProfile(), 2)
		budget, sent := 0, 0
		msgs := make([]*Message, 16)
		for i := range msgs {
			m := &Message{From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 2048, Service: svc}
			m.Deliver = func(sim.Time) {
				if budget > 0 {
					budget--
					n.Transmit(m)
				}
			}
			if svc == UD {
				m.Sent = func(sim.Time) { sent++ }
			}
			msgs[i] = m
		}
		run := func() {
			budget, sent = 1000, 0
			for _, m := range msgs {
				n.Transmit(m)
			}
			if err := s.Run(); err != nil {
				t.Error(err)
			}
		}
		run() // warm the event free list and the per-QP ordering maps
		const per = 1000 + 16
		if a := testing.AllocsPerRun(5, run) / per; a > 0 {
			t.Errorf("%v: %.3f objects per Transmit, want 0", svc, a)
		}
		if svc == UD && sent != per {
			t.Errorf("UD: Sent ran %d times a run, want %d", sent, per)
		}
	}
}

// portMsg is one transmission of a port-model scenario.
type portMsg struct {
	at           sim.Duration
	from, to     int
	fromQP, toQP uint64
	payload      int
	svc          Service
}

// portRun pushes msgs through a fresh three-node network on one of the
// port model's entry points — Transmit, or TransmitMulticast to the one
// member — and returns what the model decided: every delivery as
// "index@instant" in delivery order, and every NIC's counters.
func portRun(t *testing.T, prof Profile, msgs []portMsg, multicast bool) ([]string, []NICStats) {
	t.Helper()
	s := sim.New(7)
	n := New(s, prof, 3)
	var order []string
	for i, pm := range msgs {
		i, pm := i, pm
		m := &Message{From: pm.from, To: pm.to, FromQP: pm.fromQP, ToQP: pm.toQP,
			Payload: pm.payload, Service: pm.svc, Dropped: func() {}}
		landed := func(at sim.Time) { order = append(order, fmt.Sprintf("%d@%d", i, at)) }
		s.After(pm.at, func() {
			if multicast {
				n.TransmitMulticast(m, []int{pm.to}, func(_ int, at sim.Time) { landed(at) })
				return
			}
			m.Deliver = landed
			n.Transmit(m)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return order, n.SnapshotStats()
}

// TestPortModelEntryPointsAgree pins the point of having one port model:
// a unicast Transmit and a multicast with a single member are two entries to
// the same uplink and downlink computation, so the scenario both can carry
// (multicast takes UD data-lane datagrams only) must land every message at
// the same instant, in the same order, with the same counters, whichever way
// it entered. The RC scenarios have the one entry: they must deliver
// everything, and the checks at the end pin what the model decides in them
// (control-lane overtaking, per-QP order).
func TestPortModelEntryPointsAgree(t *testing.T) {
	jittery := FDR()
	jittery.UDReorderProb = 0.5
	var bulk, control, ordered, ud []portMsg
	for i := 0; i < 12; i++ {
		at := sim.Duration(i) * 3 * time.Microsecond
		src := i % 2
		// Two senders incast 64 KiB messages into node 2.
		bulk = append(bulk, portMsg{at, src, 2, uint64(10 + src), uint64(20 + src), 65536, RC})
		// The same incast with a 16-byte credit word from another QP behind
		// every buffer: the control lane lets it overtake.
		control = append(control, bulk[i], portMsg{at, src, 2, uint64(30 + src), uint64(40 + src), 16, RC})
		// The word on the buffer's own QP: RC order holds it back.
		ordered = append(ordered, bulk[i], portMsg{at, src, 2, uint64(10 + src), uint64(20 + src), 16, RC})
		// 4 KiB datagrams, half of them jittered.
		ud = append(ud, portMsg{at / 3, src, 2, uint64(50 + src), 60, 4096, UD})
	}
	for _, sc := range []struct {
		name      string
		prof      Profile
		msgs      []portMsg
		multicast bool // the scenario can also enter through TransmitMulticast
	}{
		{"bulk", FDR(), bulk, false},
		{"control-lane", FDR(), control, false},
		{"rc-ordered", FDR(), ordered, false},
		{"ud-jittered", jittery, ud, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			wantOrder, wantStats := portRun(t, sc.prof, sc.msgs, false)
			if len(wantOrder) != len(sc.msgs) {
				t.Fatalf("delivered %d of %d messages", len(wantOrder), len(sc.msgs))
			}
			if !sc.multicast {
				return
			}
			order, stats := portRun(t, sc.prof, sc.msgs, true)
			if !reflect.DeepEqual(order, wantOrder) {
				t.Errorf("multicast deliveries differ from unicast:\n  %v\n  %v", order, wantOrder)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("multicast NIC counters differ from unicast:\n  %+v\n  %+v", stats, wantStats)
			}
		})
	}
	// The scenarios must exercise what their names claim.
	if o, _ := portRun(t, FDR(), control, false); o[0][:2] != "1@" {
		t.Errorf("control-lane word did not overtake the bulk buffer: %v", o[:2])
	}
	if o, _ := portRun(t, FDR(), ordered, false); o[0][:2] != "0@" {
		t.Errorf("RC order let the word overtake its own QP's buffer: %v", o[:2])
	}
}

// TestMulticastMemberUnderPauseAndDegrade: a multicast copy crosses its
// member's port as a unicast datagram would. With the sender's links degraded
// to half rate and member 1's NIC paused, member 1 gets its copy exactly when
// a unicast to it would land, and strictly after unpaused member 2.
func TestMulticastMemberUnderPauseAndDegrade(t *testing.T) {
	land := func(multicast bool) (at [3]sim.Time) {
		s := sim.New(1)
		n := New(s, quietProfile(), 3)
		n.Faults().Add(FaultRule{Class: FaultDegrade, From: 0, To: AnyNode, Factor: 0.5})
		n.Faults().Add(FaultRule{Class: FaultPause, To: 1, End: sim.Time(50 * time.Microsecond)})
		m := &Message{From: 0, FromQP: 1, ToQP: 9, Payload: 4096, Service: UD, Dropped: func() {}}
		if multicast {
			n.TransmitMulticast(m, []int{1, 2}, func(d int, t sim.Time) { at[d] = t })
		} else {
			m.To = 1
			m.Deliver = func(t sim.Time) { at[1] = t }
			n.Transmit(m)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	mc, uc := land(true), land(false)
	p := quietProfile()
	half := Serialize(p.WireBytes(4096, UD), p.LinkBandwidth/2)
	want2 := sim.Time(0).Add(p.WQEProcessing + p.QPCacheMissPenalty + half).
		Add(p.SwitchDelay + p.PropagationDelay).Add(p.QPCacheMissPenalty + half)
	if mc[2] != want2 {
		t.Errorf("member 2 landed at %v, want %v (both legs at half rate)", mc[2], want2)
	}
	if want1 := sim.Time(50 * time.Microsecond).Add(p.QPCacheMissPenalty + half); mc[1] != want1 {
		t.Errorf("paused member 1 landed at %v, want %v (pause end + downlink at half rate)", mc[1], want1)
	}
	if mc[1] != uc[1] {
		t.Errorf("multicast copy to the paused member landed at %v, a unicast at %v", mc[1], uc[1])
	}
}
