package cluster

import (
	"testing"

	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// closeStamp records the instant its fragment closes, which is the instant
// the sink reports the fragment finished.
type closeStamp struct {
	engine.Operator
	at sim.Time
}

func (s *closeStamp) Close(p *sim.Proc) {
	s.Operator.Close(p)
	s.at = p.Now()
}

// TestFragmentCompletionRoutesHome pins the one engine-dependent step of a
// fragment's life: on the classic engine the query ends the instant its
// last fragment finishes; on a partitioned one the completion is a control
// message from the fragment's node to the control partition and lands
// exactly one route latency later — at 1 and 2 partitions alike, so the
// response time cannot depend on the LP count.
func TestFragmentCompletionRoutesHome(t *testing.T) {
	prof := fabric.FDR()
	for lps, hop := range []sim.Duration{0, prof.RouteLatency(), prof.RouteLatency()} {
		c := NewWithOptions(prof, 2, 1, 7, SimOptions{ParallelLPs: lps})
		frag := &closeStamp{Operator: &engine.Burn{
			In: &engine.Scan{T: SyntheticTable(1, 4096)}, PerBatch: 3000,
		}}
		stage := c.Sim.NewWaitGroup("stage")
		var stageEnd sim.Time
		q := &Query{Name: "probe", Setup: func(*sim.Proc) {}}
		q.Stream = func(*sim.Proc) {
			q.Go(1, "frag", &engine.Sink{In: frag}, stage)
			c.Sim.Spawn("stage-end", func(p *sim.Proc) {
				stage.Wait(p)
				stageEnd = p.Now()
			})
		}
		collected := false
		q.Collect = func() { collected = true }
		if err := c.Run(q); err != nil {
			t.Fatalf("lps=%d: %v", lps, err)
		}
		if !collected || frag.at <= q.Start {
			t.Fatalf("lps=%d: collected=%v, fragment closed at %v, stream began at %v", lps, collected, frag.at, q.Start)
		}
		if got := q.End.Sub(frag.at); got != hop {
			t.Errorf("lps=%d: query ended %v after its fragment finished, want %v", lps, got, hop)
		}
		if stageEnd != q.End {
			t.Errorf("lps=%d: extra WaitGroup released at %v, the query's at %v", lps, stageEnd, q.End)
		}
	}
}
