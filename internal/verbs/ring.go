package verbs

import "rshuffle/internal/bufpool"

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
// Write reaching the region — and always on the owning device's partition,
// so the pool's own mutex is the only lock involved. A 32-node MEMQ/SR
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

// UD datagram snapshots.
//
// A UD send completes when the datagram is on the wire, so stage snapshots
// the payload, and a datagram shuffle snapshots an MTU per 4 KiB it moves.
// Each device keeps a short free list of MTU-capacity snapshots in front of
// the pool: stage takes from the sending device's list, and once the
// receive-side copy is done the delivery parks the snapshot on the
// *destination* device's list. Delivery runs on the destination's
// partition, as that device's own posts do, so a list has one owner and
// needs no lock, and an all-to-all refills every node as fast as it drains.
// maxUDSnaps bounds the list so that the receiver of an incast, which sends
// nothing, cannot hoard; what does not fit goes to the pool, as the list
// itself does when the device is recycled.
const maxUDSnaps = 64

// takeUDSnap returns an n-byte snapshot buffer of at least MTU capacity.
func (d *Device) takeUDSnap(n int) []byte {
	if last := len(d.udSnaps) - 1; last >= 0 {
		b := d.udSnaps[last]
		d.udSnaps[last] = nil
		d.udSnaps = d.udSnaps[:last]
		return b[:n]
	}
	return bufpool.Get(d.prof().MTU)[:n]
}

// parkUDSnap takes back the payload of a delivered unicast datagram. Only a
// buffer of MTU capacity is one of takeUDSnap's: stage gives inline and
// short payloads exactly the bytes they need, and those go to the GC.
func (d *Device) parkUDSnap(b []byte) {
	if cap(b) < d.prof().MTU {
		return
	}
	if len(d.udSnaps) >= maxUDSnaps {
		bufpool.Put(b)
		return
	}
	bufpool.Scribble(b[:cap(b)])
	d.udSnaps = append(d.udSnaps, b)
}

// RecycleMRs deregisters every remaining pooled region on the device and
// returns their materialised chunks, and the device's datagram snapshots,
// to the pool. Call it only when the owning simulation is finished: no Proc
// may touch a recycled ring again. Non-pooled regions are untouched, and
// calling it twice is a no-op.
func (d *Device) RecycleMRs() {
	for _, mr := range d.mrs {
		if mr.pooled {
			mr.release()
		}
	}
	for _, b := range d.udSnaps {
		bufpool.Put(b)
	}
	d.udSnaps = nil
}
