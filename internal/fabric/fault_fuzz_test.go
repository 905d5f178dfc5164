package fabric

import (
	"slices"
	"strings"
	"testing"

	"rshuffle/internal/sim"
)

// FuzzFaultPlanValidation throws arbitrary rule fields at FaultPlan.Add and
// checks the contract both ways: a rejected rule must fail with a
// diagnosable "fabric:" panic (never an index error or a nil dereference),
// and an accepted rule must satisfy the plan's scheduling invariants at
// every probed instant — no activity before Start, crash-stops are
// permanent, reboot windows heal, partitions respect their groups and their
// heal deadline, and severed stays consistent with down and cut.
func FuzzFaultPlanValidation(f *testing.F) {
	// One seed per class, plus the tricky shapes: a reboot expressed via
	// OnFor, a periodic pause, an asymmetric partition, overlapping windows
	// via Period > OnFor, and degenerate zero-width windows.
	f.Add(uint8(0), int64(-1), int64(1), int64(0), int64(0), int64(0), int64(3), 1.0, uint8(1), uint8(2), false)
	f.Add(uint8(5), int64(1), int64(1), int64(100), int64(0), int64(0), int64(0), 1.0, uint8(0), uint8(0), false)   // crash
	f.Add(uint8(6), int64(1), int64(1), int64(100), int64(900), int64(0), int64(0), 1.0, uint8(0), uint8(0), false) // reboot via End
	f.Add(uint8(6), int64(1), int64(1), int64(100), int64(0), int64(800), int64(0), 1.0, uint8(0), uint8(0), false) // reboot via OnFor
	f.Add(uint8(6), int64(1), int64(1), int64(100), int64(90), int64(0), int64(0), 1.0, uint8(0), uint8(0), false)  // reboot ends before it starts
	f.Add(uint8(7), int64(0), int64(0), int64(50), int64(5000), int64(0), int64(0), 1.0, uint8(0b0010), uint8(0b1101), true)
	f.Add(uint8(7), int64(0), int64(0), int64(50), int64(40), int64(0), int64(0), 1.0, uint8(0b0010), uint8(0b0110), false) // End<Start, groups overlap
	f.Add(uint8(4), int64(-1), int64(2), int64(0), int64(0), int64(300), int64(0), 1.0, uint8(0), uint8(0), false)          // pause, OnFor only
	f.Add(uint8(4), int64(-1), int64(2), int64(10), int64(0), int64(0), int64(0), 1.0, uint8(0), uint8(0), false)           // open-ended pause: rejected
	f.Add(uint8(3), int64(-1), int64(1), int64(0), int64(0), int64(0), int64(0), 0.25, uint8(0), uint8(0), false)           // degrade
	f.Fuzz(func(t *testing.T, class uint8, from, to, start, end, onFor, count int64, factor float64, maskA, maskB uint8, asym bool) {
		const nodes = 8
		r := FaultRule{
			Class: FaultClass(class % 8), From: int(from % nodes), To: int(to % nodes),
			Start: sim.Time(start), End: sim.Time(end),
			OnFor: sim.Duration(onFor), Count: int(count % 16), Factor: factor,
			Asym: asym,
		}
		for n := 0; n < nodes; n++ {
			if maskA&(1<<n) != 0 {
				r.GroupA = append(r.GroupA, n)
			}
			if maskB&(1<<n) != 0 {
				r.GroupB = append(r.GroupB, n)
			}
		}
		var p FaultPlan
		accepted := func() (ok bool) {
			defer func() {
				if msg := recover(); msg != nil {
					s, isStr := msg.(string)
					if !isStr || !strings.HasPrefix(s, "fabric:") {
						t.Fatalf("Add paniced without a diagnosable fabric error: %v", msg)
					}
					ok = false
				}
			}()
			p.Add(r)
			return true
		}()
		if !accepted {
			// A rejected rule must leave the plan untouched.
			if !p.Empty() {
				t.Fatal("rejected rule left residue in the plan")
			}
			return
		}
		// Probe the plan across the rule's own landmarks plus surrounding
		// instants; every query must return without panicking and obey the
		// class semantics. The probes walk forward in time so monotone
		// properties (a crash never heals) are checkable.
		probes := []sim.Time{0, 1, r.Start - 1, r.Start, r.Start + 1,
			r.Start.Add(r.OnFor), r.End - 1, r.End, r.End + 1,
			r.Start.Add(3*r.OnFor + 17), 1 << 40}
		probes = slices.DeleteFunc(probes, func(t sim.Time) bool { return t < 0 })
		slices.Sort(probes)
		wasDown := false
		for _, now := range probes {
			for a := 0; a < nodes; a++ {
				down := p.down(a, now)
				if down && now < r.Start {
					t.Fatalf("node %d down at %v, before Start %v", a, now, r.Start)
				}
				if down && r.Class != FaultCrash && r.Class != FaultReboot {
					t.Fatalf("class %d marked node %d down", r.Class, a)
				}
				if r.Class == FaultReboot && down {
					if r.End != 0 && now >= r.End {
						t.Fatalf("reboot window did not heal at End: down at %v, End %v", now, r.End)
					}
					if r.End == 0 && now.Sub(r.Start) >= r.OnFor {
						t.Fatalf("reboot window did not heal at Start+OnFor: down at %v", now)
					}
				}
				for b := 0; b < nodes; b++ {
					cut := p.cut(a, b, now)
					if cut {
						if r.Class != FaultPartition {
							t.Fatalf("class %d cut link (%d,%d)", r.Class, a, b)
						}
						if now < r.Start || now >= r.End {
							t.Fatalf("cut (%d,%d) outside window at %v", a, b, now)
						}
						ab := inGroup(r.GroupA, a) && inGroup(r.GroupB, b)
						ba := inGroup(r.GroupB, a) && inGroup(r.GroupA, b)
						if !ab && !(ba && !r.Asym) {
							t.Fatalf("cut (%d,%d) not implied by the partition groups", a, b)
						}
					}
					if want := p.down(a, now) || p.down(b, now) || cut; p.severed(a, b, now, now) != want {
						t.Fatalf("severed(%d,%d) inconsistent with down/cut at %v", a, b, now)
					}
				}
			}
			// Crash-stops are permanent over any non-decreasing probe walk.
			if r.Class == FaultCrash && r.To >= 0 {
				down := p.down(r.To, now)
				if wasDown && !down && now >= r.Start {
					t.Fatalf("crash-stopped node %d came back at %v", r.To, now)
				}
				wasDown = down
			}
		}
		// downTime names an instant the node is genuinely dark, and the
		// window machinery must agree.
		if r.Class == FaultCrash || r.Class == FaultReboot {
			at, found := p.downTime(r.To)
			if !found {
				t.Fatalf("downTime found no window for class %d", r.Class)
			}
			if at != r.Start {
				t.Fatalf("downTime = %v, want Start %v", at, r.Start)
			}
			if at >= 0 && !p.down(r.To, at) {
				t.Fatalf("node %d not down at its own downTime %v", r.To, at)
			}
		}
		// pausedUntil must terminate and never travel backwards.
		for _, now := range probes {
			if now < 0 {
				continue
			}
			if until := p.pausedUntil(r.To, now); until < now {
				t.Fatalf("pausedUntil(%d, %v) = %v travelled backwards", r.To, now, until)
			}
		}
	})
}
