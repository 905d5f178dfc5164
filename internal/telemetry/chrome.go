package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// WriteChromeEvents serializes an event stream — a tracer's Events, or the
// merged shards of a partitioned run — as Chrome trace-event JSON (the
// format chrome://tracing and Perfetto load). Spans become async begin/end
// pairs keyed by (name, qp, a); instants become thread-scoped instant
// events. pid is the fabric node, tid the low 32 bits of the QP key, and ts
// is virtual microseconds with nanosecond precision.
//
// The output is a pure function of the event sequence: with a deterministic
// simulation, two same-seed runs produce byte-identical files.
func WriteChromeEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	for _, e := range events {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		if err := writeChromeEvent(bw, e); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func writeChromeEvent(w *bufio.Writer, e Event) error {
	// ts is in microseconds; three decimals keep full nanosecond precision.
	us := e.At / 1000
	ns := e.At % 1000
	tid := uint32(e.QP)
	var err error
	switch e.Kind {
	case KBegin, KEnd:
		ph := "b"
		if e.Kind == KEnd {
			ph = "e"
		}
		_, err = fmt.Fprintf(w,
			`{"name":%q,"cat":%q,"ph":%q,"id":"%d.%d","ts":%d.%03d,"pid":%d,"tid":%d,"args":{"a":%d,"b":%d}}`,
			e.Name.String(), e.Name.String(), ph, e.QP, e.A, us, ns, e.Node, tid, e.A, e.B)
	default:
		_, err = fmt.Fprintf(w,
			`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%d.%03d,"pid":%d,"tid":%d,"args":{"a":%d,"b":%d}}`,
			e.Name.String(), e.Name.String(), us, ns, e.Node, tid, e.A, e.B)
	}
	return err
}
