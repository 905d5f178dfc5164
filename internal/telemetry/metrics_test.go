package telemetry

import (
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{0, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // (-inf,10], (10,100], (100,1000], overflow
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+10+11+100+101+1000+1001+5000 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	// Re-requesting ignores the bounds argument and returns the same handle.
	if r.Histogram("lat", []int64{1}) != h {
		t.Fatal("Histogram must be get-or-create")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds must panic")
		}
	}()
	NewRegistry().Histogram("bad", []int64{10, 10})
}

func TestCountersGaugesAndLookup(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(1)
	c.Add(4)
	if r.CounterValue("x") != 5 {
		t.Fatalf("counter = %d, want 5", r.CounterValue("x"))
	}
	if r.CounterValue("absent") != 0 {
		t.Fatal("absent counter must read 0")
	}
	g := r.Gauge("y")
	g.Set(2)
	g.SetMax(1) // no-op
	g.SetMax(7)
	if v, ok := r.Value("y"); !ok || v != 7 {
		t.Fatalf("gauge = %v, %v", v, ok)
	}
	if _, ok := r.Value("absent"); ok {
		t.Fatal("absent lookup must fail")
	}
}

func TestExportsSortedAndDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		// Insert in non-sorted order.
		r.Counter("b.count").Add(2)
		r.Counter("a.count").Add(1)
		r.Gauge("z.g").Set(1.5)
		r.Gauge("m.g").Set(0.5)
		h := r.Histogram("h.lat", []int64{1, 2})
		h.Observe(0)
		h.Observe(3)
		return r
	}
	var t1, t2 strings.Builder
	if err := WriteReport(&t1, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&t2, mk()); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatal("report export not deterministic")
	}
	if a, b := strings.Index(t1.String(), "a.count"), strings.Index(t1.String(), "b.count"); a > b {
		t.Fatal("counters not sorted by name")
	}
}
