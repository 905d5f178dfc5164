// Out-of-band failure detection. The connection manager of every node
// exchanges heartbeats with every peer over the management lane; when a peer
// stays silent past a suspicion threshold the detector declares it down and
// tells the local verbs device (Device.NotifyPeerDown), which errors the
// affected Queue Pairs and lets the shuffle endpoints drain. Crash-stop
// outages are therefore detected in a few heartbeat periods of virtual time
// instead of waiting for an endpoint stall timeout.
package cluster

import (
	"time"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// DetectorConfig parameterizes the heartbeat failure detector in virtual
// time.
type DetectorConfig struct {
	// Period is the heartbeat interval; zero selects 500us.
	Period sim.Duration
	// Suspect is the number of consecutive missed periods after which a
	// silent peer is declared down; zero selects 3. Detection latency is
	// bounded by (Suspect+2)*Period.
	Suspect int
	// Horizon stops the detector after this much virtual time as a backstop
	// so a wedged run still surfaces as a simulation deadlock instead of
	// ticking forever; zero selects 1s. Benchmarks stop the detector as soon
	// as the query completes, long before the horizon.
	Horizon sim.Duration
}

func (cfg DetectorConfig) defaulted() DetectorConfig {
	if cfg.Period <= 0 {
		cfg.Period = 500 * time.Microsecond
	}
	if cfg.Suspect <= 0 {
		cfg.Suspect = 3
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Second
	}
	return cfg
}

// Detector is the cluster-wide heartbeat failure detector. Heartbeats ride
// the management lane (the same out-of-band channel the connection setup
// uses), so they share the crash fate of the NIC: a FaultCrash silences a
// node's heartbeats exactly when it silences its data traffic. The exchange
// is evaluated analytically against the fault plan at every tick rather
// than as fabric messages, keeping the data path untouched; transient
// faults (pause, loss, degradation) are shorter than any realistic
// suspicion threshold and never silence the modeled heartbeats.
type Detector struct {
	cfg DetectorConfig
	c   *Cluster

	// lastHeard[i][j] is the last tick at which node i heard node j's
	// heartbeat; suspected[i][j] is i's current suspicion of j. Suspicion is
	// not terminal: hearing a suspected peer again clears it (the partition
	// healed or the node rebooted) and advances i's view epoch.
	lastHeard [][]sim.Time
	suspected [][]bool
	// viewEpoch[i] counts membership-view changes at node i; every suspicion
	// set or clear advances it, so two views with equal epochs are identical.
	viewEpoch []uint64
	// prevDown[j] remembers whether j's port was dark at the previous tick;
	// the first tick after a reboot window closes bumps j's device boot
	// epoch, modeling the memory wipe that fences pre-reboot writers.
	prevDown []bool
	// lastTick is the virtual time of the most recent heartbeat round; Dead
	// uses it to judge witness freshness.
	lastTick sim.Time
	stopped  bool

	// Detections counts suspicion events across all node pairs.
	Detections int
	// MaxDetectionLatency is the worst gap between a node's actual outage
	// time and a survivor suspecting it.
	MaxDetectionLatency sim.Duration
}

// InstallDetector arms a heartbeat failure detector on the cluster and
// starts it ticking immediately (first tick one period into the run). Call
// before RunBench; the benchmark stops the detector once the query
// completes.
func (c *Cluster) InstallDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.defaulted()
	d := &Detector{cfg: cfg, c: c}
	d.lastHeard = make([][]sim.Time, c.N)
	d.suspected = make([][]bool, c.N)
	d.viewEpoch = make([]uint64, c.N)
	d.prevDown = make([]bool, c.N)
	for i := 0; i < c.N; i++ {
		d.lastHeard[i] = make([]sim.Time, c.N)
		d.suspected[i] = make([]bool, c.N)
	}
	c.FD = d
	d.schedule()
	return d
}

// Stop halts the heartbeat exchange; the already-scheduled tick becomes a
// no-op and nothing further is scheduled.
func (d *Detector) Stop() { d.stopped = true }

// notify delivers a connection-manager verdict (peer-down, peer-up, epoch
// bump) to node's device. The detector itself is control-partition state;
// the verdict rides a routed management message to the node's partition — a
// device is only ever touched by its own partition — arriving one route
// latency after the tick, at any LP count.
func (d *Detector) notify(node int, fn func()) {
	c := d.c
	c.Net.Route(c.N, node, c.Sim.Now().Add(c.Net.Prof.RouteLatency()), fn)
}

func (d *Detector) schedule() {
	d.c.Sim.After(d.cfg.Period, func() {
		if d.stopped {
			return
		}
		d.step()
		if d.c.Sim.Now().Sub(0) < d.cfg.Horizon {
			d.schedule()
		}
	})
}

// step evaluates one heartbeat round: every pair exchanges a heartbeat
// unless the fault plan has silenced the sender's port (at send time), the
// listener's port (now), or cut the sender→listener link (a partition).
// Silent pairs past the suspicion threshold are suspected; hearing a
// suspected peer again clears the suspicion — a partition produces
// suspicion, not a permanent death verdict.
func (d *Detector) step() {
	now := d.c.Sim.Now()
	net := d.c.Net
	net.TracerAt(-1).Instant(now, telemetry.EvFDTick, -1, 0, int64(d.Detections), 0)
	wire := net.Prof.PropagationDelay + net.Prof.SwitchDelay
	sent := now.Add(-wire)
	if sent < 0 {
		sent = 0
	}
	threshold := sim.Duration(d.cfg.Suspect) * d.cfg.Period
	// A reboot window that closed since the previous tick advances the
	// node's boot epoch: its memory came back empty, and the epoch fence
	// keeps pre-reboot Queue Pairs out of it.
	for j := 0; j < d.c.N; j++ {
		down := net.Down(j, now)
		if d.prevDown[j] && !down {
			dev := d.c.Devs[j]
			d.notify(j, func() { dev.BumpEpoch() })
		}
		d.prevDown[j] = down
	}
	for i := 0; i < d.c.N; i++ {
		listening := !net.Down(i, now)
		for j := 0; j < d.c.N; j++ {
			if i == j {
				continue
			}
			if listening && !net.Down(j, sent) && !net.Cut(j, i, now) {
				d.lastHeard[i][j] = now
				if d.suspected[i][j] {
					// The peer is back (heal or reboot): clear the suspicion,
					// advance the view, and let the connection manager re-arm.
					d.suspected[i][j] = false
					d.viewEpoch[i]++
					dev, peer := d.c.Devs[i], j
					d.notify(i, func() { dev.NotifyPeerUp(peer) })
				}
				continue
			}
			if d.suspected[i][j] || now.Sub(d.lastHeard[i][j]) <= threshold {
				continue
			}
			d.suspected[i][j] = true
			d.viewEpoch[i]++
			d.Detections++
			net.TracerAt(-1).Instant(now, telemetry.EvSuspect, int32(i), 0, int64(j), 0)
			if dt, ok := net.DownTime(j); ok && dt <= now {
				if lat := now.Sub(dt); lat > d.MaxDetectionLatency {
					d.MaxDetectionLatency = lat
				}
			}
			dev, peer := d.c.Devs[i], j
			d.notify(i, func() { dev.NotifyPeerDown(peer) })
		}
	}
	d.lastTick = now
}

// Dead returns the nodes the cluster has declared dead, in node order. A
// node j is dead when a majority suspects it AND no live witness vouches
// for it: a witness is a node i that is itself not majority-suspected, does
// not suspect j, and heard j within the suspicion threshold of the last
// heartbeat round. A crashed node has no witnesses (nobody hears it), so it
// is declared dead as before; a node severed from a majority by an
// asymmetric partition keeps a fresh witness on the reachable side and is
// only ever suspected — suspicion, not split-brain false death.
func (d *Detector) Dead() []int {
	threshold := sim.Duration(d.cfg.Suspect) * d.cfg.Period
	majoritySuspected := make([]bool, d.c.N)
	for j := 0; j < d.c.N; j++ {
		votes := 0
		for i := 0; i < d.c.N; i++ {
			if i != j && d.suspected[i][j] {
				votes++
			}
		}
		majoritySuspected[j] = 2*votes > d.c.N
	}
	var dead []int
	for j := 0; j < d.c.N; j++ {
		if !majoritySuspected[j] {
			continue
		}
		vetoed := false
		for i := 0; i < d.c.N && !vetoed; i++ {
			if i == j || majoritySuspected[i] || d.suspected[i][j] {
				continue
			}
			if d.lastTick.Sub(d.lastHeard[i][j]) <= threshold {
				vetoed = true
			}
		}
		if !vetoed {
			dead = append(dead, j)
		}
	}
	return dead
}
