package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// A Group of one partition runs without windows: Route pushes straight into
// the wheel and Run is the Simulation's own loop. These tests pin that path
// to the windowed one — a random routed program must give every actor the
// same executed sequence at 1, 2, 3 and 8 partitions, and an illegal Route
// must fail with the same words.

// routedProgram runs a seeded random program on a Group of lps partitions
// and returns, per actor, the executed (time, tag) sequence. Every event
// routes 0-3 follow-ups to random actors one to four lookaheads ahead — all
// on one lattice, so arrivals from different sources tie constantly — and
// sometimes a local After on or off that lattice. Each actor also owns a
// Proc that sleeps, Fuses once and logs the instant it resumed. An actor
// draws only from its own stream and only inside its own events, so its
// draws are a function of its executed sequence, the thing under test.
func routedProgram(t *testing.T, seed int64, lps int) [][]string {
	t.Helper()
	const nodes, look, budget = 8, Duration(100), 150
	g := NewGroup(seed, lps, nodes, look)
	actors := nodes + 1 // the control actor takes part like any node
	logs := make([][]string, actors)
	rngs := make([]*rand.Rand, actors)
	left := make([]int, actors)
	for a := range rngs {
		rngs[a] = rand.New(rand.NewSource(seed*31 + int64(a)))
		left[a] = budget
	}
	var fire func(a int, tag string)
	fire = func(a int, tag string) {
		s := g.Sim(a)
		now := s.Now()
		logs[a] = append(logs[a], fmt.Sprintf("%d:%s", now, tag))
		rng := rngs[a]
		for i, n := 0, rng.Intn(4); i < n && left[a] > 0; i++ {
			left[a]--
			to, at := rng.Intn(actors), now.Add(look*Duration(1+rng.Intn(4)))
			tag := fmt.Sprintf("from%d#%d", a, left[a])
			g.Route(a, to, at, func() { fire(to, tag) })
		}
		if left[a] > 0 && rng.Intn(3) == 0 {
			left[a]--
			tag := fmt.Sprintf("local#%d", left[a])
			s.After(look/2*Duration(rng.Intn(5)), func() { fire(a, tag) })
		}
	}
	for a := 0; a < actors; a++ {
		a := a
		s := g.Sim(a)
		s.At(Time(look), func() { fire(a, "start") })
		nap := Duration(10 * (20 + rngs[a].Intn(150)))
		s.Spawn(fmt.Sprintf("proc@%d", a), func(p *Proc) {
			p.Sleep(nap)
			logs[a] = append(logs[a], fmt.Sprintf("%d:fuse", p.Now()))
			g.Fuse(p)
			logs[a] = append(logs[a], fmt.Sprintf("%d:fused", p.Now()))
		})
	}
	// The first Fuse ends the wide phase for good; the control actor widens
	// the Group again now and then (off the lattice, from LP 0, which is the
	// only writer) so windows of both kinds alternate through the run.
	ctl := g.Sim(g.Control())
	for at := Time(3); at < 4000; at += 450 {
		ctl.At(at, g.GoWide)
	}
	if err := runWithin(t, g.Run); err != nil {
		t.Fatalf("seed %d, %d partitions: %v", seed, lps, err)
	}
	g.Shutdown()
	return logs
}

// tiesAcrossSources counts adjacent log entries of one actor that arrived at
// the same instant from different sources.
func tiesAcrossSources(logs [][]string) int {
	n := 0
	for _, l := range logs {
		for i := 1; i < len(l); i++ {
			ta, a, _ := strings.Cut(l[i-1], ":")
			tb, b, _ := strings.Cut(l[i], ":")
			sa, _, _ := strings.Cut(a, "#")
			sb, _, _ := strings.Cut(b, "#")
			if ta == tb && strings.HasPrefix(sa, "from") && strings.HasPrefix(sb, "from") && sa != sb {
				n++
			}
		}
	}
	return n
}

func TestRoutedProgramAcrossPartitionCounts(t *testing.T) {
	defer leakCheck(t)()
	for seed := int64(1); seed <= 6; seed++ {
		ref := routedProgram(t, seed, 1)
		events := 0
		for a, l := range ref {
			events += len(l)
			if !strings.Contains(strings.Join(l, " "), ":fused") {
				t.Fatalf("seed %d: actor %d never resumed from Fuse: %v", seed, a, l)
			}
		}
		if ties := tiesAcrossSources(ref); events < 300 || ties < 10 {
			t.Fatalf("seed %d: %d events, %d cross-source ties: the program exercises too little", seed, events, ties)
		}
		for _, lps := range []int{2, 3, 8} {
			got := routedProgram(t, seed, lps)
			for a := range ref {
				if !reflect.DeepEqual(got[a], ref[a]) {
					t.Fatalf("seed %d: actor %d at %d partitions diverges from one partition:\n got  %v\n want %v",
						seed, a, lps, got[a], ref[a])
				}
			}
		}
	}
}

// TestRouteBelowLookaheadPanics: a Route nearer than the lookahead is a
// model bug at every partition count. One partition has no window to
// violate, but reports it in the words two partitions use — the bound it
// names is the one a window opening at the sender's instant would have.
func TestRouteBelowLookaheadPanics(t *testing.T) {
	defer leakCheck(t)()
	texts := map[int]string{}
	for _, lps := range []int{1, 2} {
		g := NewGroup(1, lps, 2, 100)
		g.GoWide()
		g.Sim(0).At(50, func() { g.Route(0, 1, 149, func() {}) })
		func() {
			defer func() { texts[lps] = fmt.Sprint(recover()) }()
			g.Run()
		}()
		g.Shutdown()
	}
	const want = "sim: Route at 149ns violates window bound 150ns (from 0 to 1, sender clock 50ns)"
	if texts[1] != want || texts[2] != want {
		t.Fatalf("panics:\n one partition:  %s\n two partitions: %s\n want            %s", texts[1], texts[2], want)
	}
}
