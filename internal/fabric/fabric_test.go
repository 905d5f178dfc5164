package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rshuffle/internal/sim"
)

// quietProfile returns an EDR profile with randomness disabled so latency
// arithmetic is exact.
func quietProfile() Profile {
	p := EDR()
	p.UDReorderProb = 0
	return p
}

func TestSingleMessageLatency(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	var deliveredAt sim.Time
	size := 65536
	n.Transmit(&Message{
		From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: size, Service: RC,
		Deliver: func(at sim.Time) { deliveredAt = at },
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wire := p.WireBytes(size, RC)
	// First touch of each QP misses the cache.
	want := sim.Time(0).
		Add(p.WQEProcessing + p.QPCacheMissPenalty + Serialize(wire, p.LinkBandwidth)).
		Add(p.SwitchDelay + p.PropagationDelay).
		Add(p.QPCacheMissPenalty + Serialize(wire, p.LinkBandwidth))
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestPipelinedStreamReachesLineRate(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	const msgSize = 65536
	const count = 400
	var last sim.Time
	for i := 0; i < count; i++ {
		n.Transmit(&Message{
			From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: msgSize, Service: RC,
			Deliver: func(at sim.Time) { last = at },
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(count*msgSize) / (float64(last) / 1e9)
	// Should be within 5% of the configured link bandwidth (headers + ramp).
	if gbps < 0.95*p.LinkBandwidth*float64(msgSize)/float64(p.WireBytes(msgSize, RC)) {
		t.Fatalf("stream goodput %.3g B/s, want close to %.3g", gbps, p.LinkBandwidth)
	}
	if gbps > p.LinkBandwidth {
		t.Fatalf("goodput %.3g exceeds line rate %.3g", gbps, p.LinkBandwidth)
	}
}

func TestIncastSharesReceiverDownlink(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 5)
	const msgSize = 65536
	const perSender = 100
	var last sim.Time
	received := 0
	for src := 1; src < 5; src++ {
		for i := 0; i < perSender; i++ {
			n.Transmit(&Message{
				From: src, To: 0, FromQP: uint64(src), ToQP: 100 + uint64(src),
				Payload: msgSize, Service: RC,
				Deliver: func(at sim.Time) { received++; last = at },
			})
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 4*perSender {
		t.Fatalf("received %d, want %d", received, 4*perSender)
	}
	goodput := float64(received*msgSize) / (float64(last) / 1e9)
	line := p.LinkBandwidth * float64(msgSize) / float64(p.WireBytes(msgSize, RC))
	if goodput > line {
		t.Fatalf("incast goodput %.4g exceeds downlink line rate %.4g", goodput, line)
	}
	if goodput < 0.9*line {
		t.Fatalf("incast goodput %.4g too far below line rate %.4g", goodput, line)
	}
}

func TestUDOversizePanics(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize UD message did not panic")
		}
	}()
	n.Transmit(&Message{From: 0, To: 1, Payload: p.MTU + 1, Service: UD, Deliver: func(sim.Time) {}})
}

func TestUDReorderingHappens(t *testing.T) {
	s := sim.New(7)
	p := EDR()
	p.UDReorderProb = 0.3
	p.UDReorderJitter = 20 * time.Microsecond
	n := New(s, p, 2)
	var order []int
	const count = 300
	for i := 0; i < count; i++ {
		i := i
		n.Transmit(&Message{
			From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 4096, Service: UD,
			Deliver: func(at sim.Time) { order = append(order, i) },
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != count {
		t.Fatalf("delivered %d, want %d", len(order), count)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("expected at least one out-of-order UD delivery")
	}
}

func TestRCNeverReorders(t *testing.T) {
	s := sim.New(7)
	p := EDR() // reorder prob nonzero, but applies to UD only
	n := New(s, p, 2)
	var order []int
	for i := 0; i < 200; i++ {
		i := i
		n.Transmit(&Message{
			From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 4096, Service: RC,
			Deliver: func(at sim.Time) { order = append(order, i) },
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("RC delivery reordered at %d: %d after %d", i, order[i], order[i-1])
		}
	}
}

func TestInjectedUDLoss(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	n.Faults().Add(FaultRule{Class: FaultUDLoss, From: AnyNode, To: 1, Count: 2})
	delivered, dropped := 0, 0
	for i := 0; i < 5; i++ {
		n.Transmit(&Message{
			From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 1024, Service: UD,
			Deliver: func(at sim.Time) { delivered++ },
			Dropped: func() { dropped++ },
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || dropped != 2 {
		t.Fatalf("delivered=%d dropped=%d, want 3 and 2", delivered, dropped)
	}
	if got := n.Stats(1).UDDropped; got != 2 {
		t.Fatalf("stats UDDropped = %d, want 2", got)
	}
}

func TestQPCacheMissesDegradeThroughput(t *testing.T) {
	run := func(nqps int) float64 {
		s := sim.New(1)
		p := FDR() // small cache
		p.UDReorderProb = 0
		n := New(s, p, 2)
		const msgSize = 65536
		const count = 600
		var last sim.Time
		for i := 0; i < count; i++ {
			qp := uint64(i % nqps)
			n.Transmit(&Message{
				From: 0, To: 1, FromQP: qp, ToQP: 1000 + qp, Payload: msgSize, Service: RC,
				Deliver: func(at sim.Time) { last = at },
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(count*msgSize) / (float64(last) / 1e9)
	}
	few, many := run(4), run(200)
	if many >= few {
		t.Fatalf("throughput with 200 QPs (%.3g) should be below 4 QPs (%.3g)", many, few)
	}
	if many > 0.93*few {
		t.Fatalf("expected >7%% degradation from QP cache misses, got %.1f%%",
			100*(1-many/few))
	}
}

func TestLoopbackDelivers(t *testing.T) {
	s := sim.New(1)
	n := New(s, quietProfile(), 2)
	ok := false
	n.Transmit(&Message{From: 1, To: 1, FromQP: 5, ToQP: 5, Payload: 4096, Service: RC,
		Deliver: func(at sim.Time) { ok = at > 0 }})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("loopback message not delivered after t=0")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 3)
	for i := 0; i < 10; i++ {
		n.Transmit(&Message{From: 0, To: 2, FromQP: 1, ToQP: 2, Payload: 1000, Service: RC,
			Deliver: func(sim.Time) {}})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tx, rx := n.Stats(0), n.Stats(2)
	if tx.TxMessages != 10 || tx.TxBytes != 10000 {
		t.Fatalf("tx stats = %+v", tx)
	}
	if rx.RxMessages != 10 || rx.RxBytes != 10000 {
		t.Fatalf("rx stats = %+v", rx)
	}
	if tx.TxWireBytes <= tx.TxBytes {
		t.Fatal("wire bytes should exceed payload bytes")
	}
	if mid := n.Stats(1); mid.RxMessages != 0 || mid.TxMessages != 0 {
		t.Fatalf("uninvolved node has traffic: %+v", mid)
	}
}

// fixedRand returns a qpCache stream source over one seeded generator.
func fixedRand(seed int64) func() *rand.Rand {
	r := rand.New(rand.NewSource(seed))
	return func() *rand.Rand { return r }
}

func TestQPCacheBasics(t *testing.T) {
	c := newQPCache(2, fixedRand(1))
	hit := func(qp uint64) bool { h, _, _ := c.touch(qp); return h }
	if hit(1) {
		t.Fatal("first touch of 1 should miss")
	}
	if !hit(1) {
		t.Fatal("second touch of 1 should hit")
	}
	hit(2)
	if !hit(1) || !hit(2) {
		t.Fatal("both QPs should fit in a cache of 2")
	}
	_, victim, evicted := c.touch(3) // evicts one of {1,2}
	if !evicted || (victim != 1 && victim != 2) {
		t.Fatalf("touch(3) evicted=%v victim=%d, want eviction of 1 or 2", evicted, victim)
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if !hit(3) {
		t.Fatal("3 must be cached right after insertion")
	}
}

// Property: hit rate with working set w and capacity c (< w, random
// replacement, cyclic access) should be well above zero and below one —
// i.e., no scan-thrash cliff.
func TestQPCacheNoThrashCliff(t *testing.T) {
	c := newQPCache(32, fixedRand(3))
	hits, total := 0, 0
	for round := 0; round < 200; round++ {
		for qp := uint64(0); qp < 48; qp++ {
			if h, _, _ := c.touch(qp); h {
				hits++
			}
			total++
		}
	}
	rate := float64(hits) / float64(total)
	if rate < 0.3 || rate > 0.9 {
		t.Fatalf("hit rate %.2f outside smooth-degradation range [0.3, 0.9]", rate)
	}
}

// Property: WireBytes is monotone in payload and always at least payload+1.
func TestWireBytesProperty(t *testing.T) {
	p := EDR()
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		for _, svc := range []Service{RC, UD} {
			if p.WireBytes(x, svc) > p.WireBytes(y, svc) {
				return false
			}
			if p.WireBytes(x, svc) <= x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time is nondecreasing in message count for a fixed
// route (FIFO serving), and total elapsed grows at least linearly with
// bytes.
func TestFIFODeliveryProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		s := sim.New(5)
		p := quietProfile()
		n := New(s, p, 2)
		var times []sim.Time
		for _, sz := range sizes {
			n.Transmit(&Message{
				From: 0, To: 1, FromQP: 1, ToQP: 2,
				Payload: int(sz) + 1, Service: RC,
				Deliver: func(at sim.Time) { times = append(times, at) },
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(times) != len(sizes) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransmit64K(b *testing.B) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	for i := 0; i < b.N; i++ {
		n.Transmit(&Message{From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 65536,
			Service: RC, Deliver: func(sim.Time) {}})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestControlLaneBypassesBulkBacklog(t *testing.T) {
	// Queue a deep bulk backlog, then send a tiny control message: it must
	// be delivered within roughly one packet time, not behind the backlog.
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	var bulkLast, ctlAt sim.Time
	for i := 0; i < 100; i++ {
		n.Transmit(&Message{From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 65536,
			Service: RC, Deliver: func(at sim.Time) { bulkLast = at }})
	}
	// The control message rides a DIFFERENT QP (same-QP ordering would
	// rightly hold it back).
	n.Transmit(&Message{From: 0, To: 1, FromQP: 9, ToQP: 10, Payload: 8,
		Service: RC, Deliver: func(at sim.Time) { ctlAt = at }})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ctlAt >= bulkLast/10 {
		t.Fatalf("control message delivered at %v, should beat the %v bulk backlog", ctlAt, bulkLast)
	}
}

func TestControlLaneRespectsQPOrder(t *testing.T) {
	// On the SAME RC QP, a small message posted after a bulk one must not
	// overtake it.
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 2)
	var order []string
	n.Transmit(&Message{From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 65536,
		Service: RC, Deliver: func(at sim.Time) { order = append(order, "bulk") }})
	n.Transmit(&Message{From: 0, To: 1, FromQP: 1, ToQP: 2, Payload: 8,
		Service: RC, Deliver: func(at sim.Time) { order = append(order, "ctl") }})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "bulk" {
		t.Fatalf("same-QP order violated: %v", order)
	}
}

func TestMulticastSingleUplinkSerialization(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 5)
	delivered := map[int]sim.Time{}
	m := &Message{From: 0, FromQP: 1, ToQP: 99, Payload: 4096, Service: UD}
	n.TransmitMulticast(m, []int{1, 2, 3, 4}, func(dest int, at sim.Time) {
		delivered[dest] = at
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 4 {
		t.Fatalf("delivered to %d members, want 4", len(delivered))
	}
	// One uplink serialization: sender tx accounts exactly one message.
	if tx := n.Stats(0).TxMessages; tx != 1 {
		t.Fatalf("tx messages = %d, want 1", tx)
	}
	// All member arrivals within a small window of each other.
	var min, max sim.Time
	for _, at := range delivered {
		if min == 0 || at < min {
			min = at
		}
		if at > max {
			max = at
		}
	}
	if max-min > sim.Time(2*Serialize(p.WireBytes(4096, UD), p.LinkBandwidth)) {
		t.Fatalf("member arrival spread too wide: %v..%v", min, max)
	}
}

func TestMulticastPerMemberLoss(t *testing.T) {
	s := sim.New(1)
	p := quietProfile()
	n := New(s, p, 4)
	n.Faults().Add(FaultRule{Class: FaultUDLoss, From: AnyNode, To: 2, Count: 1})
	delivered := map[int]bool{}
	m := &Message{From: 0, FromQP: 1, ToQP: 99, Payload: 512, Service: UD,
		Dropped: func() {}}
	n.TransmitMulticast(m, []int{1, 2, 3}, func(dest int, at sim.Time) {
		delivered[dest] = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered[2] {
		t.Fatal("member 2's copy should have been lost")
	}
	if !delivered[1] || !delivered[3] {
		t.Fatal("other members must still receive their copies")
	}
}
