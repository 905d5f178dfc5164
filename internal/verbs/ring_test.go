package verbs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

const ringSlot = 64 << 10

// retained returns the bytes parked in the pool class holding classBytes
// chunks, and that class's hit and miss counts.
func retained(classBytes int) (bytes, hits, misses int64) {
	for _, c := range bufpool.Stats() {
		if c.ClassBytes == classBytes {
			return c.RetainedBytes, c.Hits, c.Misses
		}
	}
	return 0, 0, 0
}

// gauge reads one of the device's published per-node gauges,
// verbs.<name>.node<i>.
func gauge(d *Device, name string) int64 {
	reg := telemetry.NewRegistry()
	d.PublishMetrics(reg)
	v, _ := reg.Value(fmt.Sprintf("verbs.%s.node%d", name, d.node))
	return int64(v)
}

// TestRingMaterialisesOnArrival pins the demand-materialisation contract on
// the receive side: registering and posting a whole window backs nothing,
// and each arrival backs exactly the chunk it lands in, while the registered
// accounting charges the full window from the start.
func TestRingMaterialisesOnArrival(t *testing.T) {
	r := newRig(t, 2)
	qpa, qpb, cqa, cqb := r.rcPair(0, 1)
	const window = 16
	ring := r.devs[1].AllocRingNoCost(window, ringSlot)
	msg := r.devs[0].RegisterMRNoCost([]byte("a message"))

	r.sim.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < window; i++ {
			if err := qpb.PostRecv(p, RecvWR{ID: uint64(i), MR: ring, Offset: i * ringSlot, Len: ringSlot}); err != nil {
				t.Error(err)
				return
			}
		}
		if got := gauge(r.devs[1], "peak_materialized_bytes"); got != 0 {
			t.Errorf("materialised after PostRecv alone = %d, want 0", got)
		}
		if got := r.devs[1].RegisteredBytes(); got != window*ringSlot {
			t.Errorf("registered = %d, want the whole window %d", got, window*ringSlot)
		}
		var es [1]CQE
		for i := 1; i <= 2; i++ {
			cqb.WaitPoll(p, es[:])
			if got := gauge(r.devs[1], "peak_materialized_bytes"); got != int64(i*ringSlot) {
				t.Errorf("materialised after arrival %d = %d, want %d", i, got, i*ringSlot)
			}
			slot := int(es[0].WRID)
			if got := string(ring.Bytes(slot*ringSlot, es[0].Bytes)); got != "a message" {
				t.Errorf("slot %d holds %q", slot, got)
			}
		}
	})
	r.sim.Spawn("send", func(p *sim.Proc) {
		p.Sleep(20 * time.Microsecond) // let the window get posted
		var es [1]CQE
		for i := 0; i < 2; i++ {
			if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: msg, Len: msg.Len()}); err != nil {
				t.Error(err)
				return
			}
			cqa.WaitPoll(p, es[:])
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := gauge(r.devs[1], "peak_registered_bytes"); got != window*ringSlot {
		t.Errorf("peak registered = %d, want %d", got, window*ringSlot)
	}
}

// TestRingReleaseParksTouchedChunks: RecycleMRs hands the pool exactly the
// chunks that were materialised, and doing it twice changes nothing.
func TestRingReleaseParksTouchedChunks(t *testing.T) {
	r := newRig(t, 1)
	d := r.devs[0]
	mr := d.AllocRingNoCost(16, ringSlot)
	mr.Bytes(3*ringSlot, 8)
	mr.Bytes(9*ringSlot+100, 8)
	mr.Bytes(9*ringSlot, ringSlot) // same chunk again
	before, _, _ := retained(ringSlot)
	for round := 1; round <= 2; round++ {
		d.RecycleMRs()
		if after, _, _ := retained(ringSlot); after-before != 2*ringSlot {
			t.Errorf("round %d parked %d bytes, want the 2 touched chunks (%d)",
				round, after-before, 2*ringSlot)
		}
		if got := d.RegisteredBytes(); got != 0 {
			t.Errorf("round %d: registered = %d, want 0", round, got)
		}
	}
	if got := gauge(d, "peak_materialized_bytes"); got != 2*ringSlot {
		t.Errorf("peak materialised = %d, want %d", got, 2*ringSlot)
	}
}

// TestRecycledChunkServesAnotherShape: a chunk parked by an RC-shaped ring
// (64 KiB slots) backs a UD-shaped one (GRH + 4 KiB MTU slots, fifteen to a
// chunk) — the cross-shape reuse that one size class per ring shape never
// gave.
func TestRecycledChunkServesAnotherShape(t *testing.T) {
	r := newRig(t, 2)
	rc := r.devs[0].AllocRingNoCost(16, ringSlot)
	first := &rc.Bytes(5*ringSlot, 1)[0]
	r.devs[0].RecycleMRs()

	_, hits, misses := retained(ringSlot)
	const udSlot = GRHSize + 4096
	d := r.devs[1]
	ud := d.AllocRingNoCost(128, udSlot)
	if got := &ud.Bytes(0, 1)[0]; got != first {
		t.Error("UD-shaped ring did not reuse the chunk the RC-shaped ring parked")
	}
	if _, h, m := retained(ringSlot); h != hits+1 || m != misses {
		t.Errorf("pool hits/misses moved by %d/%d, want 1/0", h-hits, m-misses)
	}
	// Slots 0..14 share the first chunk; slot 15 opens the second.
	ud.Bytes(14*udSlot, udSlot)
	if got := gauge(d, "peak_materialized_bytes"); got != 15*udSlot {
		t.Errorf("peak materialised = %d, want %d", got, 15*udSlot)
	}
	ud.Bytes(15*udSlot, udSlot)
	if got := gauge(d, "peak_materialized_bytes"); got != 30*udSlot {
		t.Errorf("peak materialised = %d, want %d", got, 30*udSlot)
	}
	d.RecycleMRs()
}

// TestRingStraddleIsAnError: a work request or access that crosses a slot
// chunk boundary fails loudly, naming the region and the offsets, where a
// contiguous buffer would have let it through; out-of-range requests keep
// returning the bare ErrOutOfRange.
func TestRingStraddleIsAnError(t *testing.T) {
	r := newRig(t, 2)
	qpa, _, _, _ := r.rcPair(0, 1)
	ring := r.devs[0].AllocRingNoCost(4, ringSlot)
	r.sim.Spawn("t", func(p *sim.Proc) {
		err := qpa.PostSend(p, SendWR{Op: OpSend, MR: ring, Offset: ringSlot - 8, Len: 16})
		want := fmt.Sprintf("MR %d access [%d, %d)", ring.RKey, ringSlot-8, ringSlot+8)
		if !errors.Is(err, ErrOutOfRange) || err == ErrOutOfRange || !strings.Contains(err.Error(), want) {
			t.Errorf("straddling send: err = %v, want one wrapping ErrOutOfRange and naming %q", err, want)
		}
		if err := qpa.PostRecv(p, RecvWR{MR: ring, Offset: ringSlot / 2, Len: ringSlot}); err == nil || err == ErrOutOfRange {
			t.Errorf("straddling recv: err = %v, want a straddle error", err)
		}
		if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: ring, Offset: 3 * ringSlot, Len: ringSlot + 1}); err != ErrOutOfRange {
			t.Errorf("out of range: err = %v, want ErrOutOfRange", err)
		}
		if err := qpa.PostSend(p, SendWR{Op: OpSend, MR: ring, Offset: -1, Len: 8}); err != ErrOutOfRange {
			t.Errorf("negative offset: err = %v, want ErrOutOfRange", err)
		}
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := gauge(r.devs[0], "peak_materialized_bytes"); got != 0 {
		t.Errorf("rejected work requests materialised %d bytes", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprintf("MR %d", ring.RKey)) || !strings.Contains(msg, "straddles") {
			t.Errorf("straddling Bytes: panic %q, want the MR key and a straddle diagnosis", msg)
		}
	}()
	ring.Bytes(2*ringSlot-1, 2)
}
