package fabric

import (
	"testing"
	"time"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// lossyProf returns the RoCEv2 lossy profile with randomness disabled and
// DCQCN off, so these tests exercise the switch model alone.
func lossyProf() Profile {
	p := RoCEv2Lossy()
	p.UDReorderProb = 0
	p.UDLossRate = 0
	p.DCQCN = false
	return p
}

// pacedStream spawns a proc on s that transmits count RC messages of size
// payload from src to dst, one per gap, starting at start. RC messages with
// a Dropped handler are droppable data; handler nil means infrastructure.
func pacedStream(s *sim.Simulation, n *Network, name string, src, dst, payload, count int, start, gap sim.Duration, onDrop func()) {
	s.Spawn(name, func(p *sim.Proc) {
		p.Sleep(start)
		for i := 0; i < count; i++ {
			m := &Message{
				From: src, To: dst, FromQP: uint64(src)<<32 | 1, ToQP: uint64(dst)<<32 | 1,
				Payload: payload, Service: RC,
				Deliver: func(at sim.Time) {},
			}
			if onDrop != nil {
				m.Dropped = onDrop
			}
			n.Transmit(m)
			p.Sleep(gap)
		}
	})
}

// TestPFCPauseHysteresis drives a 3-into-1 incast of paced RC streams
// against the lossy profile and checks the XOFF/XON machinery in virtual
// time: the congested egress port emits pause frames whose durations equal
// the analytic drain time from the crossing occupancy back to XON (bounded
// below by draining XOFF−XON and above by draining a full buffer), the
// hysteresis band keeps pause frames far rarer than ECN marks, senders
// accumulate exactly the paused time the port charged, and PFC protects the
// buffer well enough that nothing tail-drops.
func TestPFCPauseHysteresis(t *testing.T) {
	prof := lossyProf()
	// Lossless operation needs XOFF-to-buffer headroom that covers worst-case
	// in-flight (committed-but-unarrived messages plus post-pause backlog
	// bursts), exactly like real PFC headroom sizing. Deepen the buffer while
	// keeping the default XOFF/XON/mark thresholds.
	prof.SwitchBufferBytes = 512 << 10
	s := sim.New(1)
	n := New(s, prof, 4)
	events := traceShards(n, 1<<16)

	// 8 KiB messages at 1.2x aggregate oversubscription: occupancy ramps
	// slowly enough that the in-flight overshoot past XOFF (messages already
	// committed to sender uplinks when the pause frame lands, plus the backlog
	// posted during a pause that bursts at resume) stays inside the
	// XOFF-to-buffer headroom, as PFC sizing requires.
	const payload = 8 << 10
	wire := prof.WireBytes(payload, RC)
	gap := Serialize(wire, prof.LinkBandwidth) * 5 / 2 // 0.4x line rate each
	for src := 0; src < 3; src++ {
		pacedStream(s, n, "agg", src, 3, payload, 100, 0, gap, func() {
			t.Error("PFC should have protected the buffer; got a tail drop")
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	port := n.Stats(3)
	if port.PFCPausesSent == 0 {
		t.Fatal("3x oversubscription never crossed XOFF")
	}
	if port.ECNMarks == 0 {
		t.Fatal("no ECN marks below the pause threshold")
	}
	if port.TailDrops != 0 {
		t.Fatalf("TailDrops = %d, want 0 under PFC protection", port.TailDrops)
	}
	if port.PFCPausesSent >= port.ECNMarks {
		t.Fatalf("pauses (%d) not rarer than marks (%d): hysteresis band ineffective",
			port.PFCPausesSent, port.ECNMarks)
	}

	// A sender's first pause frame must carry the full analytic drain-to-XON
	// duration; later frames are incremental extensions of an already-frozen
	// uplink and may be arbitrarily short. All are bounded by draining a full
	// buffer.
	minPause := int64(prof.PropagationDelay + Serialize(prof.PFCXoffBytes-prof.PFCXonBytes, prof.LinkBandwidth))
	maxPause := int64(prof.PropagationDelay + Serialize(prof.SwitchBufferBytes+wire-prof.PFCXonBytes, prof.LinkBandwidth))
	var pauseEvents int
	pausedPerNode := map[int32]int64{}
	for _, e := range events() {
		if e.Name != telemetry.EvPFCPause {
			continue
		}
		pauseEvents++
		if _, seen := pausedPerNode[e.Node]; !seen && e.A < minPause {
			t.Fatalf("first pause for node %d extends only %d ns, want >= %d (drain XOFF to XON)", e.Node, e.A, minPause)
		}
		if e.A <= 0 || e.A > maxPause {
			t.Fatalf("pause extension %d ns outside analytic window (0, %d]", e.A, maxPause)
		}
		if e.B != 3 {
			t.Fatalf("pause attributed to egress node %d, want 3", e.B)
		}
		pausedPerNode[e.Node] += e.A
	}
	if int64(pauseEvents) != port.PFCPausesSent {
		t.Fatalf("trace has %d pause events, counters say %d", pauseEvents, port.PFCPausesSent)
	}
	var total sim.Duration
	for src := 0; src < 3; src++ {
		st := n.Stats(src)
		if got := pausedPerNode[int32(src)]; got != int64(st.PFCPauseTime) {
			t.Fatalf("node %d: traced pause time %d ns != counted %d ns", src, got, st.PFCPauseTime)
		}
		total += st.PFCPauseTime
	}
	if total <= 0 {
		t.Fatal("senders recorded no paused uplink time")
	}
}

// TestPFCVictimHeadOfLineBlocking shows the classic PFC pathology: a victim
// flow to an idle port stalls behind its sender's paused uplink. The victim
// node first participates in a hot incast (earning itself a pause frame),
// then sends to a cold port; the same schedule runs once with aggressors and
// once without, and the congested run must deliver the cold-port message
// later than the quiet run — and, in virtual time, no earlier than the pause
// the victim's uplink was charged.
func TestPFCVictimHeadOfLineBlocking(t *testing.T) {
	const payload = 64 << 10
	run := func(withAggressors bool) (cold sim.Time, pauseFloor sim.Time, pausedFor sim.Duration) {
		prof := lossyProf()
		s := sim.New(1)
		n := New(s, prof, 5)
		events := traceShards(n, 1<<16)
		wire := prof.WireBytes(payload, RC)
		gap := Serialize(wire, prof.LinkBandwidth)
		if withAggressors {
			for src := 1; src <= 3; src++ {
				pacedStream(s, n, "agg", src, 4, payload, 12, 0, gap, nil)
			}
		}
		s.Spawn("victim", func(p *sim.Proc) {
			// Join the hot flow once occupancy is past XOFF, then try the
			// idle port at node 1 while the uplink is frozen.
			p.Sleep(40 * time.Microsecond)
			n.Transmit(&Message{From: 0, To: 4, FromQP: 1, ToQP: 2,
				Payload: payload, Service: RC, Deliver: func(at sim.Time) {}})
			p.Sleep(25 * time.Microsecond)
			n.Transmit(&Message{From: 0, To: 1, FromQP: 1, ToQP: 3,
				Payload: payload, Service: RC,
				Deliver: func(at sim.Time) { cold = at }})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, e := range events() {
			if e.Name == telemetry.EvPFCPause && e.Node == 0 {
				if end := e.At.Add(sim.Duration(e.A)); end > pauseFloor {
					pauseFloor = end
				}
			}
		}
		pausedFor = n.Stats(0).PFCPauseTime
		return cold, pauseFloor, pausedFor
	}

	coldHot, pauseFloor, pausedFor := run(true)
	coldQuiet, _, quietPaused := run(false)
	if quietPaused != 0 {
		t.Fatalf("quiet run paused the victim for %v", quietPaused)
	}
	if pausedFor <= 0 {
		t.Fatal("victim's uplink was never paused; the incast is miscalibrated")
	}
	if coldHot <= coldQuiet {
		t.Fatalf("cold-port delivery %v not delayed vs quiet run %v", coldHot, coldQuiet)
	}
	if coldHot < pauseFloor {
		t.Fatalf("cold-port message delivered at %v, before the uplink unfroze at %v", coldHot, pauseFloor)
	}
}

// TestTailDropOnOverrun pre-posts a UD incast too fast for pause frames to
// help (every transmit is already queued when the first pause lands), so the
// egress buffer must overrun: droppable packets tail-drop with their Dropped
// callbacks run, undroppable RC infrastructure is never lost, and
// bookkeeping (delivered + dropped == sent, marks at or above drops) holds.
func TestTailDropOnOverrun(t *testing.T) {
	prof := lossyProf()
	s := sim.New(1)
	n := New(s, prof, 5)

	const perSender = 60
	payload := prof.MTU
	delivered, dropped := 0, 0
	for src := 0; src < 4; src++ {
		for i := 0; i < perSender; i++ {
			n.Transmit(&Message{
				From: src, To: 4, FromQP: uint64(src)<<32 | 1, ToQP: 4<<32 | 1,
				Payload: payload, Service: UD,
				Deliver: func(at sim.Time) { delivered++ },
				Dropped: func() { dropped++ },
			})
		}
	}
	// RC infrastructure (no Dropped handler) rides through the same storm.
	infraDelivered := 0
	for i := 0; i < 8; i++ {
		n.Transmit(&Message{
			From: 0, To: 4, FromQP: 1<<32 | 9, ToQP: 4<<32 | 9,
			Payload: payload, Service: RC,
			Deliver: func(at sim.Time) { infraDelivered++ },
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	port := n.Stats(4)
	if port.TailDrops == 0 {
		t.Fatal("pre-posted 4x incast did not overrun the buffer")
	}
	if dropped != int(port.TailDrops) || int64(dropped) != port.UDDropped {
		t.Fatalf("dropped callbacks %d, TailDrops %d, UDDropped %d: must agree",
			dropped, port.TailDrops, port.UDDropped)
	}
	if delivered+dropped != 4*perSender {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, dropped, 4*perSender)
	}
	if infraDelivered != 8 {
		t.Fatalf("infrastructure RC delivered %d of 8; must never tail-drop", infraDelivered)
	}
	// Admitted packets above the marking threshold were CE-marked on the way
	// in (dropped packets never mark: they are gone before the ECN stage).
	if port.ECNMarks == 0 {
		t.Fatal("an overrunning incast must mark admitted packets")
	}
}

// traceShards installs a trace shard of capacity events on every node of n
// and returns a reader of the merged stream.
func traceShards(n *Network, capacity int) func() []telemetry.Event {
	shards := make([]*telemetry.Tracer, n.Nodes()+1)
	for i := range shards {
		shards[i] = telemetry.NewTracer(capacity)
	}
	n.SetTracerShards(shards)
	return func() []telemetry.Event { return telemetry.MergeShards(shards) }
}
