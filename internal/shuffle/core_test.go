package shuffle

import (
	"errors"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// coreDev opens one device on a two-node fabric for tests that exercise the
// endpoint core directly, without building a whole shuffle.
func coreDev() (*sim.Simulation, *verbs.Device) {
	s := sim.New(1)
	return s, verbs.OpenAll(fabric.New(s, quietEDR(), 2))[0]
}

func TestPeerSetDrainReopen(t *testing.T) {
	ps := newPeerSet(3)
	for i := 0; i < 2; i++ { // idempotent
		ps.DrainPeer(1)
		if d, ok := ps.anyFailed(); !ok || d != 1 {
			t.Fatalf("after drain %d: anyFailed = %d, %v", i, d, ok)
		}
	}
	for _, peer := range []int{-1, 3} { // out of range: ignored
		ps.DrainPeer(peer)
		if ps.Depleted(peer) {
			t.Fatalf("out-of-range peer %d reported depleted", peer)
		}
	}
	if got := ps.failed; got[0] || !got[1] || got[2] {
		t.Fatalf("failed marks = %v, want only peer 1", got)
	}
}

func TestPeerSetMissingFailed(t *testing.T) {
	ps := newPeerSet(3)
	if ps.markDone(2) {
		t.Fatal("one of three markers reported all done")
	}
	ps.DrainPeer(2)
	if s, ok := ps.missingFailed(); ok {
		t.Fatalf("failed source %d already finished, yet reported missing", s)
	}
	if !ps.Depleted(2) || ps.Depleted(0) {
		t.Fatal("Depleted does not follow the done marks")
	}
	ps.DrainPeer(0)
	if s, ok := ps.missingFailed(); !ok || s != 0 {
		t.Fatalf("missingFailed = %d, %v, want source 0", s, ok)
	}
	ps.markDone(0)
	if !ps.markDone(1) || !ps.allDone() {
		t.Fatal("three of three markers did not report all done")
	}
}

func TestSendPoolFanOut(t *testing.T) {
	_, dev := coreDev()
	sp := newSendPool(dev, 2, 256, 0)
	b, ok := sp.tryGet()
	if !ok || b.Cap() != 256-HeaderSize {
		t.Fatalf("tryGet = %v, %v", b, ok)
	}
	const fanout = 3
	b.Len = 8
	sp.commit(b, header{payload: 8, src: 1}, fanout)
	if h := getHeader(sp.mr.Bytes(b.off, HeaderSize)); h.payload != 8 || h.src != 1 {
		t.Fatalf("committed header = %+v", h)
	}
	for i := 1; i < fanout; i++ {
		if err := sp.complete(b.off); err != nil {
			t.Fatal(err)
		}
		if len(sp.free) != 1 || b.owed != fanout-i || sp.inFlight != 1 {
			t.Fatalf("after %d of %d completions: %d free, %d owed, %d in flight",
				i, fanout, len(sp.free), b.owed, sp.inFlight)
		}
	}
	if err := sp.complete(b.off); err != nil {
		t.Fatal(err)
	}
	if len(sp.free) != 2 || sp.inFlight != 0 {
		t.Fatalf("after the last completion: %d free, %d in flight", len(sp.free), sp.inFlight)
	}
	// A duplicate completion, or one for a buffer never sent or no buffer at
	// all, is an error and leaves no negative count behind.
	for _, off := range []int{b.off, 256, 100, 512} {
		if err := sp.complete(off); err == nil {
			t.Fatalf("completion for idle buffer %d accepted", off)
		}
	}
	if len(sp.free) != 2 || sp.inFlight != 0 || b.owed != 0 {
		t.Fatalf("bogus completions changed the pool: %d free, %d owed, %d in flight", len(sp.free), b.owed, sp.inFlight)
	}
	// The slot's record goes out again with the slot.
	b0 := b
	for i := 0; i < 2; i++ {
		if b, ok = sp.tryGet(); !ok {
			t.Fatal("pool empty after every buffer came back")
		}
		if b.off == b0.off && (b != b0 || b.Len != 0) {
			t.Fatalf("slot %d leased as a new record or with a stale length", b.off)
		}
	}
}

// land plays the RDMA Write wr (built by a producer ring's stage) into the
// consumer ring, as the fabric would.
func land(t *testing.T, wr verbs.SendWR, to *wordRing) {
	t.Helper()
	if wr.RemoteKey != to.mr.RKey || wr.Len != 8 || !wr.Inline {
		t.Fatalf("staged write %+v does not target the consumer ring", wr)
	}
	copy(to.mr.Bytes(wr.RemoteOffset, 8), wr.MR.Bytes(wr.Offset, 8))
}

func TestWordRingWrapAround(t *testing.T) {
	_, dev := coreDev()
	const n, ringCap, me, peer = 3, 3, 2, 1
	prod, cons := newWordRing(dev, n, ringCap), newWordRing(dev, n, ringCap)
	prod.win[peer] = cons.window(me)
	if _, ok := cons.take(me); ok {
		t.Fatal("take on an empty ring succeeded")
	}
	// Twice around the ring, never more than ringCap-1 words ahead.
	for i := 0; i < 2*ringCap+1; i++ {
		land(t, prod.stage(peer, packSlot(100+i, i, false)), &cons)
		land(t, prod.stage(peer, packSlot(200+i, i, true)), &cons)
		for _, base := range []int{100, 200} {
			v, ok := cons.take(me)
			off, length, dep := unpackSlot(v)
			if !ok || off != base+i || length != i || dep != (base == 200) {
				t.Fatalf("round %d: took (%d, %d, %v, ok=%v), want offset %d", i, off, length, dep, ok, base+i)
			}
		}
		if _, ok := cons.take(me); ok {
			t.Fatalf("round %d: a taken slot still reads valid", i)
		}
	}
	// Words for one peer never surface in another peer's queue.
	for q := 0; q < n; q++ {
		if _, ok := cons.take(q); ok {
			t.Fatalf("queue %d holds a word nobody produced", q)
		}
	}
	// preset hands words over without the wire and advances the producer.
	prod.preset(peer, &cons, me, packSlot(7, 0, false))
	if v, ok := cons.take(me); !ok || v != packSlot(7, 0, false) {
		t.Fatalf("preset word = %#x, %v", v, ok)
	}
	if prod.pos[peer] != cons.pos[me] {
		t.Fatalf("producer at %d, consumer at %d", prod.pos[peer], cons.pos[me])
	}
}

// TestWordRingConcurrentStaging: two threads sharing an endpoint stage for
// the same peer and are descheduled before their posts snapshot the
// payload; each must still find its own word in its own staging slot.
func TestWordRingConcurrentStaging(t *testing.T) {
	s, dev := coreDev()
	ring := newWordRing(dev, 2, 4)
	var wrs [2]verbs.SendWR
	for i := range wrs {
		i := i
		s.Spawn("producer", func(p *sim.Proc) {
			wrs[i] = ring.stage(1, packSlot(i+1, 0, false))
			p.Sleep(time.Microsecond)
			if got := verbs.ReadUint64(ring.mr.Bytes(wrs[i].Offset, 8)); got != packSlot(i+1, 0, false) {
				t.Errorf("producer %d: staged word overwritten: %#x", i, got)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wrs[0].Offset == wrs[1].Offset || wrs[0].RemoteOffset == wrs[1].RemoteOffset {
		t.Fatalf("two producers share a slot: %+v / %+v", wrs[0], wrs[1])
	}
}

// TestReapConsumesWholeBatch: a failed completion must not hide the
// successful ones dequeued behind it in the same poll.
func TestReapConsumesWholeBatch(t *testing.T) {
	_, dev := coreDev()
	e := newEndpoint(dev, Config{}.Defaulted(), 2, "test", 8, 16)
	e.createRCQPs(e.scq, 4, 4)
	sp := newSendPool(dev, 2, 256, 1)
	lost, _ := sp.tryGet()
	kept, _ := sp.tryGet()
	sp.commit(lost, header{}, 1)
	sp.commit(kept, header{}, 1)
	qpn := e.qps[1].QPN()
	batch := []verbs.CQE{
		{QPN: qpn, WRID: sp.id(lost.off), Status: verbs.WCRetryExceeded},
		{QPN: qpn, WRID: 0}, // control write: no buffer attached
		{QPN: qpn, WRID: sp.id(kept.off)},
	}
	err := e.reap(batch, &sp)
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("reap = %v, want the transport failure", err)
	}
	if b, ok := sp.tryGet(); !ok || b.off != kept.off {
		t.Fatal("the buffer completed behind the failed CQE did not return to the pool")
	}
	if lost.owed != 1 || sp.inFlight != 1 {
		t.Fatalf("%d owed, %d in flight, want only the failed buffer", lost.owed, sp.inFlight)
	}

	// Attribution: the same failure on a connection whose peer is dead is
	// that peer's failure; a lenient (flow-control) endpoint skips it.
	e.DrainPeer(1)
	if err := e.reap(batch[:1], &sp); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("reap with peer 1 drained = %v, want ErrPeerFailed", err)
	}
	e.lenient = true
	if err := e.reap(batch[:1], &sp); err != nil {
		t.Fatalf("lenient reap of a dead peer's flush = %v", err)
	}
	e.failed[1] = false
	if err := e.reap(batch[:1], &sp); !errors.Is(err, ErrTransport) {
		t.Fatalf("lenient reap of a live peer's failure = %v, want ErrTransport", err)
	}
}

// TestCheckErrConservation: a shuffle whose fragments all ran clean must
// still account for every row it handed to SEND; a transport error outranks
// the census, since a failed run is expected to be short.
func TestCheckErrConservation(t *testing.T) {
	sends := []*Shuffle{{rowsOut: 60}, {rowsOut: 40}}
	recvs := []*Receive{{Rows: 70}, {Rows: 30}}
	if err := CheckErr(sends, recvs); err != nil {
		t.Fatalf("balanced census: %v", err)
	}
	recvs[1].Rows = 29
	if err := CheckErr(sends, recvs); !errors.Is(err, ErrRowsLost) {
		t.Fatalf("99 of 100 rows delivered: err = %v, want ErrRowsLost", err)
	}
	recvs[0].Err = ErrStalled
	if err := CheckErr(sends, recvs); !errors.Is(err, ErrStalled) || errors.Is(err, ErrRowsLost) {
		t.Fatalf("failed run: err = %v, want the transport error only", err)
	}
}
