package mpi

import (
	"bytes"
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

func TestHeaderRoundtrip(t *testing.T) {
	b := make([]byte, hdrSize)
	h := msgHeader{kind: kindRTS, flags: flagDepleted | flagTotal,
		src: 1023, msgID: 7_000_001, payload: 65536, value: 1 << 40}
	putHdr(b, h)
	if got := getHdr(b); got != h {
		t.Fatalf("roundtrip = %+v, want %+v", got, h)
	}
}

// world builds a 2-node MPI job on a quiet EDR fabric.
func world(t *testing.T) (*sim.Simulation, *World) {
	t.Helper()
	prof := fabric.EDR()
	prof.UDReorderProb = 0
	s := sim.New(3)
	net := fabric.New(s, prof, 2)
	devs := verbs.OpenAll(net)
	var w *World
	s.Spawn("build", func(p *sim.Proc) {
		w = Build(p, devs)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s, w
}

// exchange sends the payloads from node 0 to node 1 and returns what node 1
// received, in order.
func exchange(t *testing.T, payloads [][]byte) [][]byte {
	t.Helper()
	s, w := world(t)
	send := w.SendEndpoints(0)[0]
	recv := w.RecvEndpoints(1)[0]
	var got [][]byte

	s.Spawn("sender", func(p *sim.Proc) {
		for _, pl := range payloads {
			b, err := send.GetFree(p)
			if err != nil {
				t.Error(err)
				return
			}
			b.Len = copy(b.Data, pl)
			if err := send.Send(p, b, []int{1}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := send.Finish(p); err != nil {
			t.Error(err)
		}
	})
	// Node 1 must also finish its (empty) sending side so node 0's receive
	// endpoint terminates if used; here only node 1 receives.
	s.Spawn("peer-finish", func(p *sim.Proc) {
		if err := w.SendEndpoints(1)[0].Finish(p); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for {
			d, err := recv.GetData(p)
			if err != nil {
				t.Error(err)
				return
			}
			if d == nil {
				return
			}
			got = append(got, append([]byte(nil), d.Payload...))
			recv.Release(p, d)
		}
	})
	// Node 0's receive side must drain its own EOF too.
	s.Spawn("recv0", func(p *sim.Proc) {
		r0 := w.RecvEndpoints(0)[0]
		for {
			d, err := r0.GetData(p)
			if err != nil || d == nil {
				return
			}
			r0.Release(p, d)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEagerPathIntegrity(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 40; i++ {
		pl := bytes.Repeat([]byte{byte(i + 1)}, 1000+i) // well under EagerLimit
		payloads = append(payloads, pl)
	}
	got := exchange(t, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("received %d messages, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestRendezvousPathIntegrity(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 30; i++ {
		pl := bytes.Repeat([]byte{byte(i + 1)}, 50_000) // above EagerLimit
		payloads = append(payloads, pl)
	}
	got := exchange(t, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("received %d messages, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestMixedSizes(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 30; i++ {
		n := 100
		if i%2 == 1 {
			n = 40_000
		}
		payloads = append(payloads, bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	got := exchange(t, payloads)
	total := 0
	for _, g := range got {
		total += len(g)
	}
	want := 0
	for _, pl := range payloads {
		want += len(pl)
	}
	if total != want {
		t.Fatalf("received %d bytes, want %d", total, want)
	}
}

func TestSetupReported(t *testing.T) {
	_, w := world(t)
	conn, reg := w.Setup()
	if conn <= 0 || reg <= 0 {
		t.Fatalf("setup = %v, %v; want positive costs", conn, reg)
	}
}
