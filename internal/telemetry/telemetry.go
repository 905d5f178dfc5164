// Package telemetry provides the observability layer of the shuffle stack:
// a deterministic virtual-time event tracer and a metrics registry, with
// exporters for Chrome trace-event JSON and plain-text/CSV reports.
//
// The tracer records spans (work-request post → completion, phases) and
// instant events (message on the wire, QP cache misses, retries, credit
// write-backs, failure-detector suspicions) into a fixed-capacity ring
// buffer of value-typed events. Because the simulator is deterministic,
// two same-seed runs emit byte-identical exported traces, which makes the
// trace itself a regression oracle.
//
// Cost discipline: a nil *Tracer is a valid, disabled tracer — every method
// is a nil-safe no-op — and an enabled tracer writes events in place into a
// preallocated ring, so neither state allocates on the send/receive hot
// path (verified by allocation tests).
package telemetry

import "rshuffle/internal/sim"

// Ev names one trace event type. The set is closed and interned so that
// emitting an event never allocates.
type Ev uint8

const (
	// EvNone is the zero value; it is never emitted.
	EvNone Ev = iota
	// EvWR spans a send-side work request from post to completion.
	// A = work-request id, B = opcode on begin / completion status on end.
	EvWR
	// EvWire marks the instant a message is fully serialized onto the
	// sender uplink. A = wire bytes, B = 1 for the control lane, 0 for data.
	EvWire
	// EvDrop marks a message lost on the wire (injected loss or crash).
	EvDrop
	// EvQPCacheMiss marks a work request touching a Queue Pair whose state
	// had to be fetched across PCIe.
	EvQPCacheMiss
	// EvQPCacheEvict marks a QP state evicted from the NIC cache; A = the
	// evicted QP key.
	EvQPCacheEvict
	// EvRNRRetry marks an RC send NAKed because no receive was posted.
	EvRNRRetry
	// EvTransportRetry marks an RC packet retransmitted after a loss;
	// A = attempt number.
	EvTransportRetry
	// EvQPError marks a Queue Pair transitioning to the Error state;
	// A = the triggering completion status.
	EvQPError
	// EvPeerDown marks a connection-manager disconnect event; A = the peer.
	EvPeerDown
	// EvCQPoll marks a completion-queue poll that returned entries; A = count.
	EvCQPoll
	// EvCredit marks a flow-control write-back (credit word, FreeArr/slot
	// grant); A = the peer, B = the value written.
	EvCredit
	// EvDrainPeer and EvClosePeer bracket membership-aware endpoint
	// teardown after a failure-detector verdict; A = the dead peer.
	EvDrainPeer
	EvClosePeer
	// EvFDTick marks one heartbeat-detector round; A = suspicion events
	// accumulated before the round.
	EvFDTick
	// EvSuspect marks a node declaring a peer dead; A = the suspect.
	EvSuspect
	// EvPhase spans a named run phase (setup, stream); A = phase id.
	EvPhase
	// EvPFCPause marks a PFC pause frame freezing a sender uplink; the
	// event is attributed to the paused sender, A = the pause extension in
	// nanoseconds, B = the congested egress port's node.
	EvPFCPause
	// EvECNMark marks a data packet CE-marked at a congested egress port;
	// A = the packet's wire bytes.
	EvECNMark
	// EvTailDrop marks a packet tail-dropped at a full egress port;
	// A = the packet's payload bytes, B = 1 for UD, 0 for RC.
	EvTailDrop
	// EvCNP marks a congestion notification packet generated by a receiver
	// NIC toward a sender QP; A = the sender node.
	EvCNP
	// EvRateCut marks a DCQCN rate-limiter update on a sender QP;
	// A = the new rate in bytes/s, B = 1 for a CNP-triggered cut, 0 for a
	// recovery-timer increase.
	EvRateCut
	// EvStaleFenced marks a work request from a stale-epoch Queue Pair
	// rejected at the responder before touching memory; A = the stale
	// writer's node, B = the responder's current epoch.
	EvStaleFenced
	// EvStage spans one DAG execution-graph stage from fragment launch to
	// the completion of its last sink; A = the stage id within the graph.
	// Stages whose output chains forward into the next fragment have no
	// sinks of their own and share the downstream stage's span.
	EvStage
	evMax
)

var evNames = [evMax]string{
	EvNone:           "none",
	EvWR:             "wr",
	EvWire:           "wire",
	EvDrop:           "drop",
	EvQPCacheMiss:    "qp_cache_miss",
	EvQPCacheEvict:   "qp_cache_evict",
	EvRNRRetry:       "rnr_retry",
	EvTransportRetry: "transport_retry",
	EvQPError:        "qp_error",
	EvPeerDown:       "peer_down",
	EvCQPoll:         "cq_poll",
	EvCredit:         "credit",
	EvDrainPeer:      "drain_peer",
	EvClosePeer:      "close_peer",
	EvFDTick:         "fd_tick",
	EvSuspect:        "suspect",
	EvPhase:          "phase",
	EvPFCPause:       "pfc_pause",
	EvECNMark:        "ecn_mark",
	EvTailDrop:       "tail_drop",
	EvCNP:            "cnp",
	EvRateCut:        "rate_cut",
	EvStaleFenced:    "stale_fenced",
	EvStage:          "stage",
}

func (e Ev) String() string {
	if int(e) < len(evNames) {
		return evNames[e]
	}
	return "unknown"
}

// Kind distinguishes span boundaries from instant events.
type Kind uint8

const (
	// KInstant is a point event.
	KInstant Kind = iota
	// KBegin and KEnd bracket a span; they pair on (Name, Node, QP, A).
	KBegin
	KEnd
)

// Event is one recorded trace event. It is a plain value: recording one is
// a struct store into the ring, never an allocation.
type Event struct {
	// At is the virtual-time instant of the event.
	At sim.Time
	// Seq is the emission sequence number (global, starting at 0). Events
	// at equal virtual instants are ordered by Seq, which the deterministic
	// scheduler makes reproducible.
	Seq uint64
	// Name identifies the event type.
	Name Ev
	// Kind is instant, span begin, or span end.
	Kind Kind
	// Node is the fabric node the event belongs to (-1 when cluster-wide).
	Node int32
	// QP is the cluster-unique Queue Pair key involved, or 0.
	QP uint64
	// A and B carry event-specific arguments (see the Ev constants).
	A, B int64
}

// Tracer is a bounded ring buffer of trace events. The zero value and the
// nil pointer are both valid, disabled tracers. Create an enabled one with
// NewTracer.
type Tracer struct {
	buf []Event // grows by append up to max, then wraps
	max int
	n   uint64 // total events emitted; buf[i%len(buf)] holds event i
}

// NewTracer returns an enabled tracer holding at most capacity events;
// older events are overwritten once the ring wraps. Capacity is clamped to
// at least 1. The ring grows as events arrive, so a large capacity costs
// nothing that a run does not fill.
func NewTracer(capacity int) *Tracer {
	return &Tracer{max: max(capacity, 1)}
}

func (t *Tracer) emit(at sim.Time, name Ev, kind Kind, node int32, qp uint64, a, b int64) {
	if t == nil || t.max == 0 {
		return
	}
	e := Event{At: at, Seq: t.n, Name: name, Kind: kind, Node: node, QP: qp, A: a, B: b}
	if len(t.buf) < t.max {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.n%uint64(len(t.buf))] = e
	}
	t.n++
}

// Instant records a point event at virtual instant at.
func (t *Tracer) Instant(at sim.Time, name Ev, node int32, qp uint64, a, b int64) {
	t.emit(at, name, KInstant, node, qp, a, b)
}

// Begin records the start of a span identified by (name, node, qp, a).
func (t *Tracer) Begin(at sim.Time, name Ev, node int32, qp uint64, a, b int64) {
	t.emit(at, name, KBegin, node, qp, a, b)
}

// End records the end of the span identified by (name, node, qp, a).
func (t *Tracer) End(at sim.Time, name Ev, node int32, qp uint64, a, b int64) {
	t.emit(at, name, KEnd, node, qp, a, b)
}

// Len returns the number of events currently held (at most the capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Events returns the retained events oldest-first. The slice is a copy; the
// tracer may keep recording afterwards.
func (t *Tracer) Events() []Event {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := t.n - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, t.buf[(start+i)%uint64(len(t.buf))])
	}
	return out
}

// MergeShards interleaves per-node trace shards into one stream ordered by
// (virtual time, shard index, emission order) and renumbers Seq over the
// merged stream. Every node has its own shard, which advances only in its
// node's deterministic causal order; the merged order is what every golden
// trace was captured in. Nil shards are skipped; a nil or empty slice
// yields nil.
func MergeShards(shards []*Tracer) []Event {
	var total int
	for _, t := range shards {
		total += t.Len()
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	// Stable k-way merge by peeling the earliest head; shard index breaks
	// time ties, per-shard Seq order is preserved within a shard.
	heads := make([][]Event, len(shards))
	for i, t := range shards {
		heads[i] = t.Events()
	}
	for len(out) < total {
		best := -1
		for i, h := range heads {
			if len(h) == 0 {
				continue
			}
			if best < 0 || h[0].At < heads[best][0].At {
				best = i
			}
		}
		e := heads[best][0]
		heads[best] = heads[best][1:]
		e.Seq = uint64(len(out))
		out = append(out, e)
	}
	return out
}
