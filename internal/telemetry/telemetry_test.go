package telemetry

import (
	"runtime"
	"strings"
	"testing"

	"rshuffle/internal/sim"
)

func TestRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Instant(sim.Time(i), EvWire, 0, 0, int64(i), 0)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d, want 4", len(evs))
	}
	// Oldest-first: the ring retains events 6..9.
	for i, e := range evs {
		want := int64(6 + i)
		if e.A != want || e.Seq != uint64(want) {
			t.Fatalf("event %d: A=%d Seq=%d, want %d", i, e.A, e.Seq, want)
		}
	}
}

// TestTracerGrowsOnDemand checks that a tracer's capacity is a bound, not an
// up-front allocation: a 2^21-event tracer costs nothing until it emits,
// and the ring keeps its Len/Dropped/Events semantics across the point
// where it stops growing and starts to wrap.
func TestTracerGrowsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	big := NewTracer(1 << 21)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<10 {
		t.Fatalf("NewTracer(1<<21) allocated %d bytes before any event", d)
	}
	if big.max == 0 || big.Len() != 0 || big.Dropped() != 0 || big.Events() != nil {
		t.Fatal("a fresh tracer must be enabled and empty")
	}

	tr := NewTracer(4)
	for i := 0; i < 4; i++ {
		tr.Instant(sim.Time(i), EvWire, 0, 0, int64(i), 0)
	}
	if tr.Len() != 4 || tr.Dropped() != 0 {
		t.Fatalf("full ring: Len %d Dropped %d, want 4 and 0", tr.Len(), tr.Dropped())
	}
	tr.Instant(4, EvWire, 0, 0, 4, 0)
	evs := tr.Events()
	if tr.Len() != 4 || tr.Dropped() != 1 || len(evs) != 4 || evs[0].A != 1 || evs[3].A != 4 {
		t.Fatalf("after one wrap: Len %d Dropped %d events %+v", tr.Len(), tr.Dropped(), evs)
	}
}

func TestNilAndEmptyTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Instant(0, EvWire, 0, 0, 0, 0)
	tr.Begin(0, EvWR, 0, 0, 0, 0)
	tr.End(0, EvWR, 0, 0, 0, 0)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be a disabled no-op")
	}
	var zero Tracer
	zero.Instant(0, EvWire, 0, 0, 0, 0)
	if zero.max != 0 || zero.Len() != 0 {
		t.Fatal("zero-value tracer must be a disabled no-op")
	}
}

func TestTracerNoAllocations(t *testing.T) {
	// The hot-path guarantee: emitting is allocation-free both when tracing
	// is disabled (nil tracer) and when it is enabled (a ring that has
	// grown to its capacity).
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.Instant(1, EvWire, 2, 3, 4, 5)
	}); n != 0 {
		t.Fatalf("nil tracer allocates %v per emit, want 0", n)
	}
	tr := NewTracer(64)
	for i := 0; i < 64; i++ {
		tr.Instant(0, EvWire, 0, 0, 0, 0)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Instant(1, EvWire, 2, 3, 4, 5)
		tr.Begin(1, EvWR, 2, 3, 4, 5)
		tr.End(2, EvWR, 2, 3, 4, 5)
	}); n != 0 {
		t.Fatalf("enabled tracer allocates %v per emit, want 0", n)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(16)
	tr.Begin(1500, EvWR, 3, 77, 42, int64(1))
	tr.Instant(1750, EvQPCacheMiss, 3, 77, 0, 0)
	tr.End(2500, EvWR, 3, 77, 42, 0)

	var b strings.Builder
	if err := WriteChromeEvents(&b, tr.Events()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"displayTimeUnit":"ns"`,
		`"name":"wr","cat":"wr","ph":"b","id":"77.42","ts":1.500,"pid":3,"tid":77`,
		`"name":"qp_cache_miss","cat":"qp_cache_miss","ph":"i","s":"t","ts":1.750`,
		`"ph":"e","id":"77.42","ts":2.500`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q in:\n%s", want, out)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	mk := func() string {
		tr := NewTracer(8)
		for i := 0; i < 20; i++ { // wraps the ring
			tr.Instant(sim.Time(i*100), EvWire, int32(i%4), uint64(i), int64(i), 0)
		}
		var b strings.Builder
		if err := WriteChromeEvents(&b, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if mk() != mk() {
		t.Fatal("same event sequence produced different trace bytes")
	}
}

func TestEvStrings(t *testing.T) {
	for e := EvNone; e < evMax; e++ {
		if e.String() == "" || e.String() == "unknown" {
			t.Fatalf("event %d has no name", e)
		}
	}
	if Ev(200).String() != "unknown" {
		t.Fatal("out-of-range Ev must stringify as unknown")
	}
}
