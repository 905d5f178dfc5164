package verbs

import (
	"rshuffle/internal/bufpool"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// Registered rings: what is registered and what is backed.
//
// The two are different quantities here. The paper's designs register a
// send pool and a 16-deep receive window per peer per thread (§4.4),
// O(N²·window) bytes across a cluster, and the simulated cost of that —
// RegisteredBytes, the peak gauge, Comm.RegTime, SendMemoryPerNode — is
// charged in full when a ring is registered. Host memory is another matter:
// registration is a virtual cost, and only bytes that are actually read or
// written need a page. A ring (AllocRingNoCost) is therefore a table of
// slot-aligned chunks, none of them backed at registration; MR.Bytes backs
// a chunk from the process-wide pool (package bufpool) the first time
// anything touches it — GETFREE handing out a send buffer, the NIC's
// delivery copy landing a message in a posted receive slot, an RDMA Read or
// Write reaching the region. A 32-node MEMQ/SR
// query registers 2.3 GiB of rings and touches about a sixth of them;
// backing all of it would mean allocating and zeroing, on every query,
// whatever exceeds the pool's budget — most of such a query's CPU.
//
// Chunks hold as many whole slots as fit in ringChunkTarget (one slot when
// the slot is larger), so no slot-sized access straddles two chunks and the
// pool sees a handful of chunk sizes — 64 KiB for every 4 KiB–64 KiB slot
// size in the tree — rather than one size per ring shape. What one cluster
// parks, any differently shaped cluster can reuse, so a pool filled by one
// ring shape is not a cliff for the next: with a class per shape, a full
// budget of the wrong shapes would leave a query nothing to take and nowhere
// to park what it allocated.
//
// Chunks have UNSPECIFIED CONTENTS, as everything drawn from the pool has:
// see package bufpool for the rule and for which regions must not come from
// it.

// ringChunkTarget is the chunk size rings aim for: the slot size the RC
// designs use by default, so one 64 KiB message backs one chunk, and large
// enough that small-slot (UD) rings touch the pool once per ~15 slots
// rather than once per datagram.
const ringChunkTarget = 64 << 10

// AllocRingNoCost registers a ring of slots slots of slotSize bytes each
// whose host memory is materialised chunk by chunk on first touch (see the
// file comment): the full slots×slotSize is charged to the registered-bytes
// accounting now, while a slot nothing ever lands in costs no host memory.
// Contents are UNSPECIFIED — callers must treat the region like real pinned
// memory and only read bytes they have seen written — and every access must
// stay within one slot. The chunks return to the pool on
// Device.RecycleMRs.
func (d *Device) AllocRingNoCost(slots, slotSize int) *MR {
	chunk := slotSize
	if slotSize > 0 && slotSize < ringChunkTarget {
		chunk = ringChunkTarget / slotSize * slotSize
	}
	mr := d.register(slots*slotSize, chunk)
	mr.pooled = true
	return mr
}

// AllocMRNoCost is AllocRingNoCost for a region accessed as one n-byte slot.
func (d *Device) AllocMRNoCost(n int) *MR { return d.AllocRingNoCost(1, n) }

// materialize backs chunk i of a ring with pooled memory.
func (m *MR) materialize(i int) []byte {
	n := m.chunk
	if rest := m.size - i*m.chunk; rest < n {
		n = rest
	}
	c := bufpool.Get(n)
	m.chunks[i] = c
	m.dev.addMaterialized(int64(n))
	return c
}

// UD datagram records.
//
// A UD send completes when the datagram is on the wire, so its payload is
// snapshotted at post time, and a datagram shuffle snapshots an MTU per 4 KiB
// it moves. A unicast datagram is one record: the fabric Message, the work
// request fields its completion and delivery need, and an MTU-capacity
// snapshot drawn from the pool when the record is first made. Its Deliver,
// Sent and Dropped callbacks are bound then too, and the record is recycled
// whole. Each device keeps a short free list of records: a post takes from
// the sending device's list, and delivery — or a drop, the other way a
// datagram's last event can go — parks the record on the *destination*
// device's list, so an all-to-all refills every node as fast as it drains. The Sent completion fires at the
// sender before the datagram reaches the destination port, so a parked
// record has no event left to fire. maxUDFree bounds the list so that the
// receiver of an incast, which sends nothing, cannot hoard; a record that
// does not fit returns its snapshot to the pool, as the whole list does when
// the device is recycled.
const maxUDFree = 64

// udDatagram is one unicast UD datagram in flight.
type udDatagram struct {
	msg fabric.Message
	// src is the posting QP: its Sent completion retires the work request
	// id. toQPN, imm and hasImm are what delivery needs of the rest.
	src    *QP
	id     uint64
	toQPN  uint32
	imm    uint32
	hasImm bool
	// snap holds the payload, snap[:msg.Payload]; its capacity is an MTU.
	snap []byte
}

// takeUD returns a datagram record from the device's free list, or a new one.
func (d *Device) takeUD() *udDatagram {
	if last := len(d.udFree) - 1; last >= 0 {
		r := d.udFree[last]
		d.udFree[last] = nil
		d.udFree = d.udFree[:last]
		return r
	}
	mtu := d.prof().MTU
	r := &udDatagram{snap: bufpool.Get(mtu)[:mtu]}
	r.msg.Deliver, r.msg.Sent, r.msg.Dropped = r.deliver, r.sent, r.dropped
	return r
}

// parkUD takes back a datagram record whose last event has fired.
func (d *Device) parkUD(r *udDatagram) {
	r.src = nil
	if len(d.udFree) >= maxUDFree {
		bufpool.Put(r.snap)
		r.snap = nil
		return
	}
	bufpool.Scribble(r.snap[:cap(r.snap)])
	d.udFree = append(d.udFree, r)
}

// sent is the local completion: the datagram is on the wire.
func (r *udDatagram) sent(sim.Time) { r.src.done(OpSend, r.id, r.msg.Payload) }

// deliver lands the datagram at its destination and parks the record there.
func (r *udDatagram) deliver(sim.Time) {
	net, m := r.src.dev.net, &r.msg
	deliverUD(net, m.To, r.toQPN, m.From, r.src.qpn, r.snap[:m.Payload], r.imm, r.hasImm)
	deviceAt(net, m.To).parkUD(r)
}

// dropped parks the record of a datagram lost at the destination port.
func (r *udDatagram) dropped() { deviceAt(r.src.dev.net, r.msg.To).parkUD(r) }

// RecycleMRs deregisters every remaining pooled region on the device and
// returns their materialised chunks, and the snapshots of the device's
// datagram records, to the pool. Call it only when the owning simulation is
// finished: no Proc may touch a recycled ring again. Non-pooled regions are
// untouched, and calling it twice is a no-op.
func (d *Device) RecycleMRs() {
	for _, mr := range d.mrs {
		if mr.pooled {
			mr.release()
		}
	}
	for _, r := range d.udFree {
		bufpool.Put(r.snap)
	}
	d.udFree = nil
}
