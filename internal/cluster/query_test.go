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

// TestFragmentCompletionRoutesHome pins the last step of a fragment's life:
// the completion is a control message from the fragment's node to the
// control actor and lands exactly one route latency later, on the lossy
// tier as on the lossless one.
func TestFragmentCompletionRoutesHome(t *testing.T) {
	for _, prof := range []fabric.Profile{fabric.FDR(), fabric.RoCEv2Lossy()} {
		name := prof.Name
		c := New(prof, 2, 1, 7)
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
		if got, hop := q.End.Sub(frag.at), prof.RouteLatency(); got != hop {
			t.Errorf("%s: query ended %v after its fragment finished, want %v", name, got, hop)
		}
		if stageEnd != q.End {
			t.Errorf("%s: extra WaitGroup released at %v, the query's at %v", name, stageEnd, q.End)
		}
	}
}
