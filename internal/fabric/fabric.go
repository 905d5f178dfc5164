package fabric

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// ControlThreshold is the wire size below which a message rides the NIC's
// control lane: per-packet round-robin QP arbitration lets it depart within
// about one bulk-packet time instead of queueing behind the bulk backlog.
const ControlThreshold = 256

// Message is one transmission handed to the fabric. Deliver runs in
// scheduler context at the instant the last byte reaches the destination
// host; it must not block. For lost packets Deliver never runs (Dropped runs
// instead, if set).
//
// The fabric schedules the Message itself at every stage of its way — the
// Sent callback, the arrival at the receiver's port, the ECN notification,
// Deliver — and keeps what the uplink decided for the downlink in the
// Message, so a transmission allocates nothing. One Message therefore
// carries one transmission at a time: Deliver, or the drop, is the last
// thing the fabric does with it, and from inside either callback the
// Message may be transmitted again (a go-back-N replay, a re-used probe).
type Message struct {
	From, To int
	// FromQP and ToQP identify the Queue Pair state the NICs must touch to
	// process this message; they key the NIC QP caches.
	FromQP, ToQP uint64
	// Payload is the application payload size in bytes.
	Payload int
	Service Service
	// Deliver is invoked at delivery time in scheduler context.
	Deliver func(at sim.Time)
	// Sent, if non-nil, is invoked when the source NIC has finished pushing
	// the message onto the wire (the instant a UD send completion would be
	// generated).
	Sent func(at sim.Time)
	// Dropped, if non-nil, is invoked if the message is lost (UD only).
	Dropped func()

	// net is the network carrying the current transmission, fl its state
	// between the two halves of the port model.
	net *Network
	fl  flight
}

// The stages of a transmission: the event argument with which the fabric
// schedules a Message.
const (
	stageSent    = iota // the last byte left the source port: Sent
	stageArrive         // the message reached the receiver's switch port: downlink
	stageECN            // a CE-marked packet reached the receiver: the ECN hook
	stageDeliver        // the last byte reached the destination host: Deliver
)

// transit is a Message seen as the handler of its own transmission's events.
type transit Message

// Fire runs one stage of the transmission. Deliver comes last: the message
// may be transmitted again from inside it, so nothing of the finished
// transmission is read after it.
func (t *transit) Fire(stage uint64) {
	m := (*Message)(t)
	n := m.net
	switch stage {
	case stageSent:
		m.Sent(n.SimAt(m.From).Now())
	case stageArrive:
		n.downlink(m)
	case stageECN:
		n.onECN(m.From, m.To, m.FromQP, m.ToQP)
	case stageDeliver:
		m.Deliver(n.SimAt(m.To).Now())
	}
}

// NICStats counts per-NIC activity.
type NICStats struct {
	TxMessages, RxMessages     int64
	TxBytes, RxBytes           int64 // payload bytes
	TxWireBytes                int64
	QPCacheHits, QPCacheMisses int64
	// QPCacheEvictions counts QP states pushed out of the NIC cache to make
	// room for a missed one.
	QPCacheEvictions int64
	UDDropped        int64
	// RCDropped counts injected Reliable Connection losses surfaced to the
	// verbs layer (which retries them at the transport level).
	RCDropped int64
	// RCRetransmits counts packets re-sent after an injected corruption.
	RCRetransmits int64

	// Lossy Ethernet tier counters (zero under lossless profiles).

	// PFCPausesSent counts pause frames this node's switch egress port sent
	// upstream after crossing the XOFF threshold.
	PFCPausesSent int64
	// PFCPauseTime is the total time this node's uplink spent frozen by
	// pause frames from congested egress ports.
	PFCPauseTime sim.Duration
	// ECNMarks counts data packets CE-marked at this node's egress port.
	ECNMarks int64
	// TailDrops counts packets dropped at this node's egress port because
	// the shared-buffer allotment was exhausted.
	TailDrops int64

	// Per-lane wire-byte split: control-lane messages (wire size at or under
	// ControlThreshold: credit write-backs, read requests, grant words) versus
	// bulk data. Congestion claims about the control fast lane are measured
	// against these, not inferred.
	TxControlBytes, TxDataBytes int64
	RxControlBytes, RxDataBytes int64

	// TxBacklogPeak and RxBacklogPeak are switch-port queue-depth high-water
	// marks, expressed as the longest time a newly arriving message would
	// have to wait for the uplink serializer (Tx) or the downlink/egress-port
	// serializer (Rx) to drain ahead of it.
	TxBacklogPeak, RxBacklogPeak sim.Duration
}

// Sub returns the counter deltas s - o, for scoping a run phase between two
// snapshots. The backlog high-water marks are maxima, not sums, so Sub keeps
// s's values.
func (s NICStats) Sub(o NICStats) NICStats {
	s.TxMessages -= o.TxMessages
	s.RxMessages -= o.RxMessages
	s.TxBytes -= o.TxBytes
	s.RxBytes -= o.RxBytes
	s.TxWireBytes -= o.TxWireBytes
	s.QPCacheHits -= o.QPCacheHits
	s.QPCacheMisses -= o.QPCacheMisses
	s.QPCacheEvictions -= o.QPCacheEvictions
	s.UDDropped -= o.UDDropped
	s.RCDropped -= o.RCDropped
	s.RCRetransmits -= o.RCRetransmits
	s.PFCPausesSent -= o.PFCPausesSent
	s.PFCPauseTime -= o.PFCPauseTime
	s.ECNMarks -= o.ECNMarks
	s.TailDrops -= o.TailDrops
	s.TxControlBytes -= o.TxControlBytes
	s.TxDataBytes -= o.TxDataBytes
	s.RxControlBytes -= o.RxControlBytes
	s.RxDataBytes -= o.RxDataBytes
	return s
}

// nic models one host adapter: an uplink serializer, a downlink serializer,
// and a QP-state cache shared by both directions.
type nic struct {
	id     int
	txBusy sim.Time
	rxBusy sim.Time
	cache  *qpCache
	stats  NICStats
	// pfcPausedUntil freezes this NIC's data-lane uplink while a downstream
	// egress port has it paused (lossy tier only; control traffic rides a
	// separate, never-paused priority).
	pfcPausedUntil sim.Time
	// txOrder and rxOrder track the last scheduled departure/arrival per
	// Queue Pair: Reliable Connection traffic is strictly ordered within a
	// QP even when the control fast lane would otherwise let a small
	// message overtake bulk data.
	txOrder map[uint64]sim.Time
	rxOrder map[uint64]sim.Time
}

// orderFloor returns t clamped to be no earlier than the previous value for
// qp and records the new value.
func orderFloor(m map[uint64]sim.Time, qp uint64, t sim.Time) sim.Time {
	if last, ok := m[qp]; ok && last > t {
		t = last
	}
	m[qp] = t
	return t
}

// Network is a full-bisection switched fabric connecting n hosts.
type Network struct {
	Sim  *sim.Simulation
	Prof Profile
	nics []*nic

	// hosts holds one opaque per-node host context (the verbs device), set
	// by the layer above so its delivery callbacks can dispatch.
	hosts []any

	// faults is the installed fault schedule; empty by default.
	faults FaultPlan

	// onECN, when set, runs in scheduler context at packet receive time for
	// every ECN-marked data packet, identifying the flow. The verbs layer
	// installs it to generate congestion notification packets.
	onECN func(from, to int, fromQP, toQP uint64)

	// act is the per-node state (see node.go).
	act actors
}

// flight is what the uplink decided at transmit time that the downlink needs
// at the arrival instant, kept in the Message between the two.
type flight struct {
	// sent is the instant the uplink gate opened (after NIC and PFC pauses),
	// the instant the sender's port outage is judged at.
	sent sim.Time
	// bw is the link rate after FaultDegrade.
	bw     float64
	jitter sim.Duration
	wire   int32
	// control marks a control-lane message; lost and corrupted are the wire
	// fate drawn at transmit time.
	control, lost, corrupted bool
}

// SetECNHandler installs h as the ECN-mark notification hook; nil detaches
// it. Marks are still counted with no handler installed.
func (n *Network) SetECNHandler(h func(from, to int, fromQP, toQP uint64)) { n.onECN = h }

// SetArrivalBatching does nothing: every arrival is scheduled one way (see
// Transmit).
//
// Deprecated: kept only because the frozen benchmark harness
// (bench/probes.go, the fabric.transmit_exact_ns probe) calls it; nothing
// else may (make vet enforces it). The next benchmark PR retires that probe
// and this method together.
func (n *Network) SetArrivalBatching(bool) {}

// SetHost attaches an opaque host context to node i.
func (n *Network) SetHost(i int, h any) {
	if n.hosts == nil {
		n.hosts = make([]any, len(n.nics))
	}
	n.hosts[i] = h
}

// Host returns the host context attached to node i, or nil.
func (n *Network) Host(i int) any {
	if n.hosts == nil {
		return nil
	}
	return n.hosts[i]
}

// Nodes returns the number of hosts.
func (n *Network) Nodes() int { return len(n.nics) }

// Stats returns a copy of node i's NIC counters.
func (n *Network) Stats(i int) NICStats { return n.nics[i].stats }

// SnapshotStats returns a copy of every NIC's counters, for scoping a run
// phase: subtract two snapshots (NICStats.Sub) to isolate the traffic of
// the interval between them.
func (n *Network) SnapshotStats() []NICStats {
	out := make([]NICStats, len(n.nics))
	for i, nc := range n.nics {
		out[i] = nc.stats
	}
	return out
}

// Faults exposes the network's fault schedule for installing rules. Rules
// act from the next transmit on: messages already in flight keep the wire
// fate and link rate drawn when they were transmitted — only a port that is
// dark, cut off or paused when they arrive still catches them. Reading the
// plan changes nothing.
func (n *Network) Faults() *FaultPlan { return &n.faults }

// Down reports whether node's port is dark at time at: crash-stopped, or
// inside a FaultReboot window. A rebooted node comes back; a crashed one
// does not.
func (n *Network) Down(node int, at sim.Time) bool {
	if n.faults.Empty() {
		return false
	}
	return n.faults.down(node, at)
}

// Cut reports whether the directed link (from, to) is severed by an active
// FaultPartition rule at time at. Partitions cut everything on the link —
// control lane and infrastructure transfers included — in the given
// direction only (a symmetric partition installs both directions).
func (n *Network) Cut(from, to int, at sim.Time) bool {
	if n.faults.Empty() {
		return false
	}
	return n.faults.cut(from, to, at)
}

// DownTime returns the instant node's port first goes dark (earliest
// FaultCrash or FaultReboot Start) and whether any such rule exists, for
// failure detectors measuring detection latency.
func (n *Network) DownTime(node int) (sim.Time, bool) { return n.faults.downTime(node) }

// touch charges the QP-cache cost of accessing qp state on nc and returns
// the penalty to add to the engine occupancy.
func (n *Network) touch(nc *nic, qp uint64) sim.Duration {
	hit, victim, evicted := nc.cache.touch(qp)
	if hit {
		nc.stats.QPCacheHits++
		return 0
	}
	nc.stats.QPCacheMisses++
	// The touched NIC's owner is always the executing node, so its shard
	// is the right emission context.
	tr, now := n.TracerAt(nc.id), n.SimAt(nc.id).Now()
	tr.Instant(now, telemetry.EvQPCacheMiss, int32(nc.id), qp, 0, 0)
	if evicted {
		nc.stats.QPCacheEvictions++
		tr.Instant(now, telemetry.EvQPCacheEvict, int32(nc.id), qp, int64(victim), 0)
	}
	return n.Prof.QPCacheMissPenalty
}

// lossyAdmit applies the lossy-Ethernet egress-port model to a data packet
// of wire bytes arriving at dst from src at rnow. The port's buffer
// occupancy is the backlog of bytes still queued on the downlink serializer.
// In threshold order: a packet that would overrun SwitchBufferBytes is
// tail-dropped (dropped == true); past PFCXoffBytes the port sends a pause
// frame freezing src's data-lane uplink until the buffer would have drained
// back to PFCXonBytes (re-pausing only once the previous pause has lapsed —
// the XOFF/XON hysteresis); past ECNMarkBytes the packet is CE-marked
// (marked == true). droppable is false for RC infrastructure transfers the
// verbs layer cannot retry: those always get buffer, modelled as reserved
// headroom, so congestion can never wedge the simulation.
func (n *Network) lossyAdmit(src, dst *nic, qp uint64, wire int, bw float64, droppable bool, rnow sim.Time) (dropped, marked bool) {
	prof := &n.Prof
	occ := 0
	if q := dst.rxBusy.Sub(rnow); q > 0 {
		occ = int(float64(q) * bw / 1e9)
	}
	fill := occ + wire
	if droppable && fill > prof.SwitchBufferBytes {
		dst.stats.TailDrops++
		return true, false
	}
	if fill >= prof.PFCXoffBytes {
		// The pause frame takes one propagation delay to reach the sender;
		// transmissions already serialized keep arriving meanwhile.
		resume := rnow.Add(prof.PropagationDelay + Serialize(fill-prof.PFCXonBytes, bw))
		cur := src.pfcPausedUntil
		if cur < rnow {
			cur = rnow
		}
		if resume > cur {
			ext := resume.Sub(cur)
			src.pfcPausedUntil = resume
			src.stats.PFCPauseTime += ext
			dst.stats.PFCPausesSent++
			n.TracerAt(dst.id).Instant(rnow, telemetry.EvPFCPause, int32(src.id), qp, int64(ext), int64(dst.id))
		}
	}
	// WRED-style ECN: the marking probability ramps linearly from 0 at the
	// marking threshold to 1 at the pause threshold (and stays 1 above it).
	// Probabilistic marking is what keeps the DCQCN control loop stable — a
	// deterministic cliff would CNP every flow on every interval at
	// equilibrium and crash rates to the floor. The draw comes from the
	// seeded simulation RNG, so same-seed runs stay byte-identical, and no
	// node pays for a stream of its own.
	if fill >= prof.ECNMarkBytes {
		p := float64(fill-prof.ECNMarkBytes) / float64(prof.PFCXoffBytes-prof.ECNMarkBytes)
		if p >= 1 || n.Sim.Rand().Float64() < p {
			dst.stats.ECNMarks++
			n.TracerAt(dst.id).Instant(rnow, telemetry.EvECNMark, int32(dst.id), qp, int64(wire), 0)
			marked = true
		}
	}
	return false, marked
}

// The port model. A message crosses two serving resources — the sender's
// uplink and the receiver's switch egress port plus downlink — and each is
// written down once: uplink and downlink below. Every entry point is a
// caller: Transmit (one uplink, one downlink) and TransmitMulticast (one
// uplink, one downlink per member). Both schedule the downlink the same way:
// the Message itself, routed to its arrival instant at the receiver.

// uplink is the source-port half of the port model. In order: the pause gate
// (FaultPause on the NIC, then a PFC pause on the data priority), WQE fetch
// + QP-state touch + serialization at the link's possibly degraded rate,
// control-lane arbitration, the per-QP RC departure floor, the Tx counters,
// the wire trace event and the Sent callback. It leaves the flight toward
// m.To in m with its wire fate still undrawn (see wireFate) and returns the
// instants the last byte left the port and reaches the destination switch
// port.
//
// It uses the source node's tracer shard and RNG stream.
func (n *Network) uplink(m *Message, wire int, control bool) (txDone, arrive sim.Time) {
	prof := &n.Prof
	src := n.nics[m.From]
	ssim := n.SimAt(m.From)
	now := ssim.Now()
	bw := prof.LinkBandwidth
	if !n.faults.Empty() {
		// A paused NIC freezes its engines: nothing starts serializing until
		// the pause window closes.
		now = n.faults.pausedUntil(m.From, now)
		bw = n.linkRate(m.From, m.To, now)
	}
	if prof.Lossy && !control && src.pfcPausedUntil > now {
		// A PFC pause frame from a congested egress port has frozen this
		// uplink's data priority; control traffic rides a separate one.
		now = src.pfcPausedUntil
	}
	if q := src.txBusy.Sub(now); q > src.stats.TxBacklogPeak {
		src.stats.TxBacklogPeak = q
	}
	txOcc := prof.WQEProcessing + n.touch(src, m.FromQP) + Serialize(wire, bw)
	txDone = serve(&src.txBusy, now, txOcc, control, Serialize(prof.MTU, bw))
	if m.Service == RC {
		txDone = orderFloor(src.txOrder, m.FromQP, txDone)
	}
	src.stats.TxMessages++
	src.stats.TxBytes += int64(m.Payload)
	src.stats.TxWireBytes += int64(wire)
	lane := int64(0)
	if control {
		lane = 1
		src.stats.TxControlBytes += int64(wire)
	} else {
		src.stats.TxDataBytes += int64(wire)
	}
	n.TracerAt(m.From).Instant(txDone, telemetry.EvWire, int32(m.From), m.FromQP, int64(wire), lane)
	m.net = n
	m.fl = flight{sent: now, bw: bw, wire: int32(wire), control: control}
	if m.Sent != nil {
		ssim.Schedule(txDone, (*transit)(m), stageSent)
	}
	// The message reaches the destination switch port after propagation and
	// switching.
	return txDone, txDone.Add(prof.SwitchDelay + prof.PropagationDelay)
}

// serve occupies one serializer (an uplink or a downlink, *busy is its
// busy-until instant) for occ starting no earlier than now and returns when
// the message is through. Bulk messages queue FIFO. NICs and switch ports
// arbitrate Queue Pairs round-robin at packet granularity, so a control-lane
// message (credit write, read request) is through within about one
// bulk-packet time (mtu) even behind a deep bulk backlog; its bandwidth is
// still stolen from the bulk lane.
func serve(busy *sim.Time, now sim.Time, occ sim.Duration, control bool, mtu sim.Duration) sim.Time {
	if control {
		*busy = busy.Add(occ)
		if *busy < now {
			*busy = now
		}
		return now.Add(mtu + occ)
	}
	start := now
	if *busy > start {
		start = *busy
	}
	*busy = start.Add(occ)
	return *busy
}

// linkRate returns the usable rate of the directed link (from, to) at now:
// the line rate scaled by every active FaultDegrade rule.
func (n *Network) linkRate(from, to int, now sim.Time) float64 {
	return n.Prof.LinkBandwidth * n.faults.degradeFactor(from, to, now)
}

// wireFate draws what happens to m on its way to m.To: injected loss,
// injected corruption, UD reorder jitter, into m's flight. The
// decisions are made at transmit time so the whole computation stays a pure
// function of the RNG stream (deterministic), and the draws come from the
// sender's stream, which advances only in the sender's own causal order.
func (n *Network) wireFate(m *Message) {
	prof := &n.Prof
	f := &m.fl
	if !n.faults.Empty() {
		switch {
		case m.Service == UD:
			f.lost = n.faults.drop(FaultUDLoss, m.From, m.To, f.sent)
		case m.Dropped != nil:
			// RC messages without a Dropped handler are infrastructure
			// transfers the verbs layer cannot retry; they pass unharmed.
			f.lost = n.faults.drop(FaultRCLoss, m.From, m.To, f.sent)
		}
		if !f.lost && m.Service == RC {
			f.corrupted = n.faults.drop(FaultCorrupt, m.From, m.To, f.sent)
		}
	}
	if m.Service == UD {
		rng := n.rngAt(m.From)
		if prof.UDReorderProb > 0 && rng.Float64() < prof.UDReorderProb {
			f.jitter = sim.Duration(rng.Int63n(int64(prof.UDReorderJitter) + 1))
		}
	}
}

// downlink is the destination-port half of the port model, evaluated at the
// arrival instant. In order: the severed/lost
// verdict, FaultPause on the receiving NIC, lossy admission at the egress
// port (tail drop, PFC, ECN), QP-state touch + serialization onto the
// downlink — the incast bottleneck: simultaneous senders queue here — with
// control-lane arbitration, the corruption retransmit, the per-QP RC arrival
// floor, the Rx counters, the ECN hook, and Deliver after the UD jitter. It
// always runs as the stageArrive event Route scheduled at the arrival
// instant, so the receiver's clock is that instant.
func (n *Network) downlink(m *Message) {
	prof := &n.Prof
	f := &m.fl
	src, dst := n.nics[m.From], n.nics[m.To]
	dsim := n.SimAt(m.To)
	rnow := dsim.Now()
	lane := int64(0)
	if f.control {
		lane = 1
	}
	// A dark endpoint port (crash or reboot window) or a partitioned link
	// kills the message on the wire regardless of class: unlike FaultRCLoss
	// this also swallows infrastructure transfers (nil Dropped), exactly as a
	// dead port or severed trunk would. The sender's outage is judged at
	// serialization time, the receiver's and the link's at arrival.
	if f.lost || (!n.faults.Empty() && n.faults.severed(m.From, m.To, f.sent, rnow)) {
		n.drop(dst, m, rnow, telemetry.EvDrop, lane)
		return
	}
	if !n.faults.Empty() {
		rnow = n.faults.pausedUntil(m.To, rnow)
	}
	marked := false
	if prof.Lossy && !f.control {
		var tailDropped bool
		tailDropped, marked = n.lossyAdmit(src, dst, m.ToQP, int(f.wire), f.bw,
			m.Service == UD || m.Dropped != nil, rnow)
		if tailDropped {
			// The event's last argument tells UD (1) from RC (0).
			n.drop(dst, m, rnow, telemetry.EvTailDrop, int64(m.Service))
			return
		}
	}
	rxOcc := n.touch(dst, m.ToQP) + Serialize(int(f.wire), f.bw)
	if q := dst.rxBusy.Sub(rnow); q > dst.stats.RxBacklogPeak {
		dst.stats.RxBacklogPeak = q
	}
	rxDone := serve(&dst.rxBusy, rnow, rxOcc, f.control, Serialize(prof.MTU, f.bw))
	if f.corrupted {
		// One packet failed its CRC: the receiver NAKs, the sender
		// re-serializes that packet after a round trip.
		pkt := int(f.wire)
		if lim := prof.MTU + prof.HeaderRC; pkt > lim {
			pkt = lim
		}
		rxDone = rxDone.Add(Serialize(pkt, f.bw) + 2*prof.PropagationDelay + prof.SwitchDelay)
		dst.stats.RCRetransmits++
	}
	if m.Service == RC {
		rxDone = orderFloor(dst.rxOrder, m.ToQP, rxDone)
	}
	dst.stats.RxMessages++
	dst.stats.RxBytes += int64(m.Payload)
	if f.control {
		dst.stats.RxControlBytes += int64(f.wire)
	} else {
		dst.stats.RxDataBytes += int64(f.wire)
	}
	if marked && n.onECN != nil {
		dsim.Schedule(rxDone, (*transit)(m), stageECN)
	}
	dsim.Schedule(rxDone.Add(f.jitter), (*transit)(m), stageDeliver)
}

// drop accounts a message lost at dst's port at instant at — counter, trace
// event ev with its class-specific last argument — and tells the sender.
func (n *Network) drop(dst *nic, m *Message, at sim.Time, ev telemetry.Ev, arg int64) {
	if m.Service == UD {
		dst.stats.UDDropped++
	} else {
		dst.stats.RCDropped++
	}
	n.TracerAt(m.To).Instant(at, ev, int32(m.To), m.ToQP, int64(m.Payload), arg)
	if m.Dropped != nil {
		m.Dropped()
	}
}

// Transmit schedules delivery of m. It may be called from Procs or event
// callbacks. The transmit engine of the source NIC and the receive engine of
// the destination NIC are serving resources: messages queue in FIFO order
// and the caller does not block. m must not be in flight already (see
// Message).
func (n *Network) Transmit(m *Message) {
	prof := &n.Prof
	if m.From == m.To {
		// Hairpin loopback through the NIC; the switch is not traversed.
		n.loopback(m)
		return
	}
	if m.Service == UD && m.Payload > prof.MTU {
		panic(fmt.Sprintf("fabric: UD payload %d exceeds MTU %d", m.Payload, prof.MTU))
	}
	wire := prof.WireBytes(m.Payload, m.Service)
	_, arrive := n.uplink(m, wire, wire <= ControlThreshold)
	n.wireFate(m)
	n.RouteHandler(m.From, m.To, arrive, (*transit)(m), stageArrive)
}

// TransmitMulticast sends one datagram to every node in dests with a single
// work request and a single uplink serialization: the switch replicates the
// packet to each member port, as InfiniBand hardware multicast does. Each
// member's downlink still serializes its own copy. deliver runs once per
// reached member; per-member loss and jitter apply independently, and each
// copy crosses its member's port exactly as a unicast datagram would. The
// datagram always rides the data lane: the replication engine sits behind
// the bulk serializer. m.To is ignored: the uplink serializes at the rate of
// the sender's link to AnyNode, each copy's downlink at its own link's.
// Every copy is a Message of its own, scheduled like a unicast one.
func (n *Network) TransmitMulticast(m *Message, dests []int, deliver func(dest int, at sim.Time)) {
	prof := &n.Prof
	if m.Service != UD {
		panic("fabric: hardware multicast requires the UD service")
	}
	if m.Payload > prof.MTU {
		panic(fmt.Sprintf("fabric: UD payload %d exceeds MTU %d", m.Payload, prof.MTU))
	}
	up := *m
	up.To = AnyNode
	txDone, arrive := n.uplink(&up, prof.WireBytes(m.Payload, UD), false)
	ssim := n.SimAt(m.From)
	for _, d := range dests {
		if d == m.From && !n.faults.Empty() && n.faults.down(m.From, up.fl.sent) {
			// The switch loops the packet back to an attached sender port —
			// unless that port is dark, which keeps the packet off the switch.
			continue
		}
		leg := up
		leg.To, leg.Sent = d, nil
		leg.Deliver = func(at sim.Time) { deliver(d, at) }
		if d == m.From {
			ssim.Schedule(txDone, (*transit)(&leg), stageDeliver)
			continue
		}
		if !n.faults.Empty() {
			leg.fl.bw = n.linkRate(m.From, d, up.fl.sent)
		}
		n.wireFate(&leg)
		n.RouteHandler(m.From, d, arrive, (*transit)(&leg), stageArrive)
	}
}

// loopback delivers a self-addressed message through the NIC's hairpin
// path without traversing the switch: it occupies the transmit engine at
// the line rate but not the receive downlink.
func (n *Network) loopback(m *Message) {
	nc := n.nics[m.From]
	s := n.SimAt(m.From)
	occ := n.Prof.WQEProcessing + n.touch(nc, m.FromQP) +
		Serialize(m.Payload, n.Prof.LinkBandwidth)
	start := s.Now()
	if nc.txBusy > start {
		start = nc.txBusy
	}
	done := start.Add(occ)
	nc.txBusy = done
	m.net = n
	if m.Sent != nil {
		s.Schedule(done, (*transit)(m), stageSent)
	}
	nc.stats.TxMessages++
	nc.stats.RxMessages++
	nc.stats.TxBytes += int64(m.Payload)
	nc.stats.RxBytes += int64(m.Payload)
	s.Schedule(done, (*transit)(m), stageDeliver)
}
