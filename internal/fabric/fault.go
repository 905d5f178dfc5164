package fabric

import (
	"math/rand"

	"rshuffle/internal/sim"
)

// AnyNode is the wildcard endpoint for fault rules: a rule with From or To
// set to AnyNode matches traffic from or to every node.
const AnyNode = -1

// FaultClass names one kind of injected fault.
type FaultClass int

const (
	// FaultUDLoss silently drops matching Unreliable Datagram packets, as a
	// lossy wire or an overrun receive queue would.
	FaultUDLoss FaultClass = iota
	// FaultRCLoss drops matching Reliable Connection packets. The verbs
	// layer sees the loss through the message's Dropped callback and is
	// responsible for transport-level retry; messages without a Dropped
	// handler are infrastructure transfers and pass through unharmed.
	FaultRCLoss
	// FaultCorrupt flips bits in one packet of a matching RC message: the
	// link-level CRC catches it and the packet is retransmitted, costing one
	// extra packet serialization plus a round trip.
	FaultCorrupt
	// FaultDegrade scales the usable bandwidth of matching links by Factor
	// (0 < Factor <= 1), modelling congestion or a renegotiated lane width.
	FaultDegrade
	// FaultPause freezes a node's NIC (rule field To names the node): no
	// message may start serializing on its uplink or downlink during the
	// pause window. Periodic pauses model stragglers and GC-like stalls.
	FaultPause
	// FaultCrash permanently silences a node (rule field To names the node)
	// from Start on: every link to and from it is cut, so all traffic —
	// including control-lane and infrastructure transfers that other fault
	// classes spare — vanishes on the wire. Unlike FaultPause the node never
	// comes back; the rule admits no End, Period, OnFor, Rate or Count.
	FaultCrash
	// FaultReboot silences a node (rule field To names the node) exactly like
	// FaultCrash — every link cut, control lane included — but only for a
	// bounded window: the port comes back up at the window's end. Memory-tier
	// consequences (a rebooted node forgets everything it had received; its
	// stale Queue Pairs must be fenced) live in the verbs and cluster layers;
	// the fabric only models the port outage. The window must be finite (End
	// or OnFor), and Period/Rate/Count are not admitted.
	FaultReboot
	// FaultPartition cuts every link from the nodes of GroupA to the nodes of
	// GroupB over [Start, End) — control lane included, exactly as a failed
	// inter-switch trunk would. Symmetric by default (both directions); Asym
	// restricts the cut to the A->B direction, modelling the one-way gray
	// failures that confuse majority-vote failure detectors. End is required:
	// a partition heals at a deadline (a permanent one is a set of
	// FaultCrash rules).
	FaultPartition
)

func (c FaultClass) String() string {
	switch c {
	case FaultUDLoss:
		return "ud-loss"
	case FaultRCLoss:
		return "rc-loss"
	case FaultCorrupt:
		return "corrupt"
	case FaultDegrade:
		return "degrade"
	case FaultPause:
		return "pause"
	case FaultCrash:
		return "crash"
	case FaultReboot:
		return "reboot"
	case FaultPartition:
		return "partition"
	}
	return "unknown"
}

// FaultRule is one entry of a FaultPlan: a fault class applied to a directed
// link (From -> To, with AnyNode wildcards) over a time window.
//
// The window is [Start, End); End == 0 means open-ended. If Period > 0 the
// rule additionally flaps: within each Period-long stretch after Start it is
// active only for the first OnFor. If Period == 0 and OnFor > 0 the window
// is the single stretch [Start, Start+OnFor).
//
// Rate and Count select how often an active rule fires. Count > 0 with
// Rate == 0 fires deterministically on the next Count matching messages and
// draws nothing from the RNG stream.
// 0 < Rate < 1 fires probabilistically; Rate >= 1 always fires. A Count
// budget, when set alongside a Rate, caps the total number of firings.
type FaultRule struct {
	Class    FaultClass
	From, To int
	Start    sim.Time
	End      sim.Time
	Period   sim.Duration
	OnFor    sim.Duration
	Rate     float64
	Count    int
	// Factor is the bandwidth multiplier for FaultDegrade rules.
	Factor float64
	// GroupA and GroupB are the two sides of a FaultPartition rule; every
	// link from a GroupA node to a GroupB node is cut while the window is
	// open, and the reverse direction too unless Asym is set.
	GroupA, GroupB []int
	Asym           bool

	fired int
}

// inGroup reports whether node appears in g.
func inGroup(g []int, node int) bool {
	for _, n := range g {
		if n == node {
			return true
		}
	}
	return false
}

// windowOpen reports whether the rule's time window covers now.
func (r *FaultRule) windowOpen(now sim.Time) bool {
	if now < r.Start {
		return false
	}
	if r.End != 0 && now >= r.End {
		return false
	}
	since := now.Sub(r.Start)
	if r.Period > 0 {
		return since%r.Period < r.OnFor
	}
	if r.OnFor > 0 {
		return since < r.OnFor
	}
	return true
}

// matches reports whether the rule covers the directed link (from, to) at
// now, with budget remaining.
func (r *FaultRule) matches(from, to int, now sim.Time) bool {
	if r.From != AnyNode && r.From != from {
		return false
	}
	if r.To != AnyNode && r.To != to {
		return false
	}
	if r.Count > 0 && r.Rate > 0 && r.fired >= r.Count {
		return false
	}
	return r.windowOpen(now)
}

// fire decides whether a matching rule actually triggers, consuming budget
// and (only for probabilistic rules) one RNG draw.
func (r *FaultRule) fire(rng *rand.Rand) bool {
	if r.Rate == 0 {
		// Deterministic count budget: no RNG draw, so installing such a rule
		// never perturbs the random stream of the rest of the simulation.
		if r.Count > 0 && r.fired < r.Count {
			r.fired++
			return true
		}
		return false
	}
	if r.Rate < 1 && rng.Float64() >= r.Rate {
		return false
	}
	r.fired++
	return true
}

// FaultPlan is a deterministic schedule of fault rules evaluated against the
// simulation clock. The zero plan injects nothing and costs one branch per
// transmission.
type FaultPlan struct {
	rules []*FaultRule
	rng   *rand.Rand
}

// Add installs a rule and returns it (so tests can keep a handle).
func (p *FaultPlan) Add(r FaultRule) *FaultRule {
	// Written as a negated conjunction so a NaN Factor is rejected too.
	if r.Class == FaultDegrade && !(r.Factor > 0 && r.Factor <= 1) {
		panic("fabric: FaultDegrade requires 0 < Factor <= 1")
	}
	if r.Class == FaultPause && r.End == 0 && r.OnFor <= 0 {
		// windowEnd has no finite bound for such a rule, so pausedUntil would
		// have to either ignore it (the node silently stays up) or loop
		// forever; a node that never comes back is FaultCrash.
		panic("fabric: open-ended FaultPause requires End or OnFor (use FaultCrash for a permanent outage)")
	}
	if r.Class == FaultCrash {
		if r.To == AnyNode {
			panic("fabric: FaultCrash requires a concrete To node")
		}
		if r.End != 0 || r.Period != 0 || r.OnFor != 0 || r.Rate != 0 || r.Count != 0 {
			panic("fabric: FaultCrash is permanent and unconditional; End/Period/OnFor/Rate/Count must be zero")
		}
	}
	if r.Class == FaultReboot {
		if r.To == AnyNode || r.To < 0 {
			panic("fabric: FaultReboot requires a concrete To node")
		}
		if r.End == 0 && r.OnFor <= 0 {
			panic("fabric: FaultReboot requires a finite down window (End or OnFor); a node that never comes back is FaultCrash")
		}
		if r.End != 0 && r.End <= r.Start {
			panic("fabric: FaultReboot window must end after it starts")
		}
		if r.Period != 0 || r.Rate != 0 || r.Count != 0 {
			panic("fabric: FaultReboot is a single unconditional window; Period/Rate/Count must be zero")
		}
	}
	if r.Class == FaultPartition {
		if len(r.GroupA) == 0 || len(r.GroupB) == 0 {
			panic("fabric: FaultPartition requires non-empty GroupA and GroupB")
		}
		for _, a := range r.GroupA {
			if inGroup(r.GroupB, a) {
				panic("fabric: FaultPartition groups must be disjoint")
			}
		}
		// End == 0 would read as an open-ended window regardless of Start.
		if r.End == 0 || r.End <= r.Start {
			panic("fabric: FaultPartition requires a heal deadline (End > Start); a permanent cut is a set of FaultCrash rules")
		}
		if r.Period != 0 || r.OnFor != 0 || r.Rate != 0 || r.Count != 0 {
			panic("fabric: FaultPartition is a single unconditional window; Period/OnFor/Rate/Count must be zero")
		}
	}
	rule := &r
	p.rules = append(p.rules, rule)
	return rule
}

// Empty reports whether the plan has no rules installed.
func (p *FaultPlan) Empty() bool { return len(p.rules) == 0 }

// drop evaluates loss-like classes (FaultUDLoss, FaultRCLoss, FaultCorrupt)
// for one message on (from, to) at now.
func (p *FaultPlan) drop(class FaultClass, from, to int, now sim.Time) bool {
	for _, r := range p.rules {
		if r.Class != class || !r.matches(from, to, now) {
			continue
		}
		if r.fire(p.rng) {
			return true
		}
	}
	return false
}

// degradeFactor returns the combined bandwidth multiplier for (from, to) at
// now: the product of every active FaultDegrade rule's Factor, 1 if none.
func (p *FaultPlan) degradeFactor(from, to int, now sim.Time) float64 {
	f := 1.0
	for _, r := range p.rules {
		if r.Class == FaultDegrade && r.matches(from, to, now) {
			f *= r.Factor
		}
	}
	return f
}

// pausedUntil returns the earliest time at or after now when node's NIC is
// out of every pause window (now itself if the node is not paused).
func (p *FaultPlan) pausedUntil(node int, now sim.Time) sim.Time {
	t := now
	for changed := true; changed; {
		changed = false
		for _, r := range p.rules {
			if r.Class != FaultPause {
				continue
			}
			if r.To != AnyNode && r.To != node {
				continue
			}
			if !r.windowOpen(t) {
				continue
			}
			if end := r.windowEnd(t); end > t {
				t = end
				changed = true
			}
		}
	}
	return t
}

// down reports whether node's port is dark at now: crash-stopped, or inside
// a FaultReboot window.
func (p *FaultPlan) down(node int, now sim.Time) bool {
	for _, r := range p.rules {
		switch r.Class {
		case FaultCrash:
			if r.To == node && now >= r.Start {
				return true
			}
		case FaultReboot:
			if r.To == node && r.windowOpen(now) {
				return true
			}
		}
	}
	return false
}

// cut reports whether the directed link (from, to) is severed by an active
// FaultPartition rule at now.
func (p *FaultPlan) cut(from, to int, now sim.Time) bool {
	for _, r := range p.rules {
		if r.Class != FaultPartition || !r.windowOpen(now) {
			continue
		}
		if inGroup(r.GroupA, from) && inGroup(r.GroupB, to) {
			return true
		}
		if !r.Asym && inGroup(r.GroupB, from) && inGroup(r.GroupA, to) {
			return true
		}
	}
	return false
}

// severed reports whether a message on (from, to) dies on the wire: the
// sender's port was dark at serialization, the receiver's port is dark at
// arrival, or the link between them is partitioned at arrival.
func (p *FaultPlan) severed(from, to int, sentAt, arriveAt sim.Time) bool {
	return p.down(from, sentAt) || p.down(to, arriveAt) || p.cut(from, to, arriveAt)
}

// downTime returns the instant node's port first goes dark (the earliest
// Start among its FaultCrash and FaultReboot rules) and whether any such
// rule exists. Failure detectors use it to measure detection latency.
func (p *FaultPlan) downTime(node int) (sim.Time, bool) {
	var at sim.Time
	found := false
	for _, r := range p.rules {
		if (r.Class != FaultCrash && r.Class != FaultReboot) || r.To != node {
			continue
		}
		if !found || r.Start < at {
			at = r.Start
		}
		found = true
	}
	return at, found
}

// windowEnd returns the end of the active window covering t (which must be
// inside a window).
func (r *FaultRule) windowEnd(t sim.Time) sim.Time {
	var end sim.Time
	since := t.Sub(r.Start)
	switch {
	case r.Period > 0:
		end = r.Start.Add((since/r.Period)*r.Period + r.OnFor)
	case r.OnFor > 0:
		end = r.Start.Add(r.OnFor)
	default:
		end = r.End // open-ended pause without End would freeze forever
	}
	if r.End != 0 && (end == 0 || end > r.End) {
		end = r.End
	}
	return end
}
