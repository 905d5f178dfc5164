package cluster

import (
	"fmt"
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

// TestFragmentCompletionRoutesHome pins the last step of a fragment's life:
// the completion is a control message from the fragment's node to the
// control partition and lands exactly one route latency later — at 1 and 2
// partitions alike, so the response time cannot depend on the LP count, and
// on the lossy tier as on the lossless one.
func TestFragmentCompletionRoutesHome(t *testing.T) {
	fdr, lossy := fabric.FDR(), fabric.RoCEv2Lossy()
	for _, leg := range []struct {
		prof fabric.Profile
		lps  int
		hop  sim.Duration
	}{{fdr, 1, fdr.RouteLatency()}, {fdr, 2, fdr.RouteLatency()}, {lossy, 0, lossy.RouteLatency()}} {
		name := fmt.Sprintf("%s lps=%d", leg.prof.Name, leg.lps)
		c := NewWithOptions(leg.prof, 2, 1, 7, SimOptions{ParallelLPs: leg.lps})
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
			t.Fatalf("%s: %v", name, err)
		}
		if !collected || frag.at <= q.Start {
			t.Fatalf("%s: collected=%v, fragment closed at %v, stream began at %v", name, collected, frag.at, q.Start)
		}
		if got := q.End.Sub(frag.at); got != leg.hop {
			t.Errorf("%s: query ended %v after its fragment finished, want %v", name, got, leg.hop)
		}
		if stageEnd != q.End {
			t.Errorf("%s: extra WaitGroup released at %v, the query's at %v", name, stageEnd, q.End)
		}
	}
}
