package sim

import (
	"fmt"
	"testing"
	"time"
)

// Kernel microbenchmarks: the per-event scheduling cost is the wall-clock
// price of every figure, chaos matrix, and CI run, so each path gets its own
// number. allocs/op is the regression guard for the event free list (the
// hot paths must stay at 0), ns/op is the dispatch cost, events/sec the
// headline throughput exported to BENCH_sim.json by `make bench`, and
// switches/op the goroutine switches behind it — the part of ns/op that the
// event loop cannot shave, only avoid.

// reportSwitches reports the goroutine switches since start, per iteration.
func reportSwitches(b *testing.B, s *Simulation, start uint64) {
	b.ReportMetric(float64(s.Switches()-start)/float64(b.N), "switches/op")
}

// BenchmarkWheelSchedule measures the pure event-queue path with no Procs: a
// window of 1024 pending future events, each rescheduling itself, so every
// fire is a wheel pop plus push at a realistic queue depth. benchjson maps
// its former name, BenchmarkHeapSchedule, so the BENCH_sim.json series
// continues.
func BenchmarkWheelSchedule(b *testing.B) {
	s := New(1)
	const window = 1024
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.After(Duration(remaining%127+1), tick)
		}
	}
	for i := 0; i < window; i++ {
		s.After(Duration(i+1), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Events())/b.Elapsed().Seconds(), "events/sec")
	reportSwitches(b, s, 0)
}

// BenchmarkSameInstantChain measures the O(1) ring fast path: a callback
// chain that never advances the clock, so no heap operation is involved.
func BenchmarkSameInstantChain(b *testing.B) {
	s := New(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.At(s.Now(), tick)
		}
	}
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Events())/b.Elapsed().Seconds(), "events/sec")
	reportSwitches(b, s, 0)
}

// BenchmarkProcYield measures a Proc scheduling step on the ring path: one
// closure-free dispatch event that the yielding Proc pops itself, with no
// goroutine handoff.
func BenchmarkProcYield(b *testing.B) {
	s := New(1)
	var events uint64
	s.Spawn("yielder", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm the ring and event pool
			p.Yield()
		}
		b.ReportAllocs()
		b.ResetTimer()
		start, sw := s.Events(), s.Switches()
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
		events = s.Events() - start
		b.StopTimer()
		reportSwitches(b, s, sw)
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSpawnJoin measures a Proc's whole life: record, resume channel
// and goroutine start, first dispatch, the body, and the goroutine's exit.
// The event free list and the ring are warmed before the timer starts, so
// the reported allocs/op — the Proc's own, three objects — is the
// steady-state figure at any -benchtime, the 1x smoke and the short
// regression-gate runs included.
func BenchmarkSpawnJoin(b *testing.B) {
	s := New(1)
	s.Spawn("parent", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm the event free list and the ring
			s.Spawn("child", func(q *Proc) {})
			p.Yield()
		}
		b.ReportAllocs()
		b.ResetTimer()
		sw := s.Switches()
		for i := 0; i < b.N; i++ {
			s.Spawn("child", func(q *Proc) {})
			p.Yield() // let the child run to completion
		}
		b.StopTimer()
		reportSwitches(b, s, sw)
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondSignalWake measures the ready() wakeup round trip through a
// condition variable: Signal -> ring dispatch -> re-Wait.
func BenchmarkCondSignalWake(b *testing.B) {
	s := New(1)
	c := s.NewCond("bench")
	stop := false
	s.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			if stop {
				return
			}
		}
	})
	s.Spawn("signaller", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm the waiter queue and event pools
			c.Signal()
			p.Yield()
		}
		b.ReportAllocs()
		b.ResetTimer()
		sw := s.Switches()
		for i := 0; i < b.N; i++ {
			c.Signal()
			p.Yield() // let the waiter wake and re-wait
		}
		b.StopTimer()
		reportSwitches(b, s, sw)
		stop = true
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerWheelMix mixes the paths the shuffle stack actually drives:
// many Procs sleeping staggered durations (heap) plus same-instant handoffs
// (ring), approximating a streaming run's event profile.
func BenchmarkTimerWheelMix(b *testing.B) {
	s := New(1)
	const procs = 16
	per := b.N / procs
	for i := 0; i < procs; i++ {
		d := Duration(i%7 + 1)
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				if j%4 == 3 {
					p.Yield()
				} else {
					p.Sleep(d * time.Nanosecond)
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Events())/b.Elapsed().Seconds(), "events/sec")
	reportSwitches(b, s, 0)
}
