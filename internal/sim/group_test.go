package sim

import (
	"fmt"
	"testing"
)

// TestRouteBelowLookaheadPanics: a Route nearer than the lookahead is a
// model bug, and says so with the bound it broke.
func TestRouteBelowLookaheadPanics(t *testing.T) {
	defer leakCheck(t)()
	s := New(1)
	g := GroupOf(s, 2, 100)
	s.At(50, func() { g.Route(0, 1, 149, func() {}) })
	var text string
	func() {
		defer func() { text = fmt.Sprint(recover()) }()
		g.Run()
	}()
	g.Shutdown()
	const want = "sim: Route at 149ns violates lookahead bound 150ns (from 0 to 1, sender clock 50ns)"
	if text != want {
		t.Fatalf("panic:\n got  %s\n want %s", text, want)
	}
}

// TestNewGroupOnePartition: the deprecated NewGroup boots the one
// Simulation at a partition count of 0 or 1 and refuses more; GoWide
// changes nothing.
func TestNewGroupOnePartition(t *testing.T) {
	for _, lps := range []int{0, 1} {
		g := NewGroup(7, lps, 4, 100)
		if g.Sim(0) != g.Sim(g.Control()) || g.Sim(0).Seed() != 7 {
			t.Fatalf("lps %d: actors on different Simulations, or seed %d", lps, g.Sim(0).Seed())
		}
		g.GoWide()
		g.Sim(0).At(5, func() {})
		if err := g.Run(); err != nil || g.Events() != 1 {
			t.Fatalf("lps %d: Run = %v after %d events, want nil after 1", lps, err, g.Events())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup accepted two partitions")
		}
	}()
	NewGroup(7, 2, 4, 100)
}
