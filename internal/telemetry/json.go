package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
)

// The JSON emitted here is the Chrome trace_event format ("JSON Array
// Format" wrapped in an object), the lingua franca of ui.perfetto.dev and
// chrome://tracing. Output is canonical: fields in fixed order, one event
// per line, events stably sorted by timestamp within each recorder, and
// recorders sorted by name — so a seed-reproducible run produces
// byte-identical files suitable for golden tests and diffing.

// WriteJSON writes the whole trace: every recorder as its own process, with
// process/thread metadata naming the tracks.
func (t *Trace) WriteJSON(w io.Writer) error {
	return writeRecorders(w, t.Recorders())
}

// WriteFile writes the trace with WriteJSON to a Perfetto-loadable file at
// path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON writes a single-recorder trace file (the cmd/serve case).
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return writeRecorders(w, nil)
	}
	return writeRecorders(w, []*Recorder{r})
}

func writeRecorders(w io.Writer, recs []*Recorder) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line []byte) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.Write(line)
	}
	var buf []byte
	for i, r := range recs {
		pid := i + 1
		buf = appendMeta(buf[:0], pid, 0, "process_name", r.name)
		emit(buf)
		for tid, name := range r.tracks {
			buf = appendMeta(buf[:0], pid, tid, "thread_name", name)
			emit(buf)
		}
		// Emit in timestamp order. Spans are recorded at completion time, so
		// record order is by end time; the viewer and the validator want start
		// order. The sort is stable: same-cycle events keep record order,
		// which is itself deterministic (virtual time, single-threaded).
		evs := make([]Event, len(r.events))
		copy(evs, r.events)
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].TS < evs[b].TS })
		for k := range evs {
			buf = appendEvent(buf[:0], pid, &evs[k])
			emit(buf)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// appendMeta appends one metadata ('M') event line.
func appendMeta(b []byte, pid, tid int, name, value string) []byte {
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"name":"`...)
	b = append(b, name...)
	b = append(b, `","args":{"name":`...)
	b = appendJSONString(b, value)
	b = append(b, `}}`...)
	return b
}

// appendEvent appends one trace event line in canonical field order.
func appendEvent(b []byte, pid int, e *Event) []byte {
	b = append(b, `{"ph":"`...)
	b = append(b, e.Phase)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Track), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, e.TS, 10)
	if e.Phase == phaseComplete {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, e.Dur, 10)
	}
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, e.Cat)
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, e.Name)
	switch {
	case e.Phase == phaseInstant:
		// Thread-scoped instants render as small arrows on their track.
		b = append(b, `,"s":"t"`...)
	case e.Phase == phaseCounter:
		b = append(b, `,"args":{"value":`...)
		b = strconv.AppendInt(b, e.Dur, 10)
		b = append(b, `}}`...)
		return b
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			a := &e.Args[i]
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			switch a.kind {
			case argInt:
				b = strconv.AppendInt(b, a.num, 10)
			case argFloat:
				b = strconv.AppendFloat(b, a.f, 'g', -1, 64)
			case argString:
				b = appendJSONString(b, a.str)
			}
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	return b
}

// appendJSONString appends s as a JSON string literal. The common case —
// plain printable ASCII, which covers every name this repo generates — is
// appended directly; anything else goes through encoding/json for correct
// escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
