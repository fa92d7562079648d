package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export. The output is the classic JSON-object trace
// format ({"traceEvents": [...]}), which both chrome://tracing and
// Perfetto's UI load directly. One track (tid) per worker thread; each
// transaction renders as a nested pair of slices — the outer slice spans
// begin→commit, the inner slices split it per attempt at every abort —
// with instant events for aborts, path transitions, lock traffic, ring
// publication, lemming waits, escalations and watchdog alarms, and
// flow arrows (ph s/t/f) chaining the retries of one transaction ID.

// ChromeEvent is one entry of the trace-event array. Fields not used by a
// given phase are omitted from the JSON.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Cat  string            `json:"cat,omitempty"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   string            `json:"id,omitempty"` // flow-event binding id
	S    string            `json:"s,omitempty"`  // instant scope (t/p/g)
	BP   string            `json:"bp,omitempty"` // flow binding point
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event document.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

const chromePID = 1

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// exporter accumulates the trace-event array for one sink.
type exporter struct {
	out []ChromeEvent
}

func (x *exporter) add(e ChromeEvent) {
	e.PID = chromePID
	x.out = append(x.out, e)
}

func (x *exporter) instant(ts int64, tid int, name string, args map[string]string) {
	x.add(ChromeEvent{Name: name, Ph: "i", TS: usec(ts), TID: tid, S: "t", Args: args})
}

// openTx is the per-thread reconstruction state for the transaction
// currently being replayed from the ring.
type openTx struct {
	id       uint64
	beginTS  int64
	attempTS int64 // start of the current attempt (begin or last abort)
	attempt  int
	flowed   bool // a flow-start has been emitted for this id
	open     bool
}

func flowID(id uint64) string { return fmt.Sprintf("0x%x", id) }

// thread replays one buffer's events (already in recording order) into
// trace events. Ring overwrite means the stream may open mid-transaction
// (a commit whose begin was dropped) or end mid-transaction (an in-flight
// begin with no commit); both degrade to instants instead of slices.
func (x *exporter) thread(tid int, evs []Event) {
	var tx openTx
	for _, e := range evs {
		switch e.Kind {
		case EvBegin:
			tx = openTx{id: e.ID, beginTS: e.TS, attempTS: e.TS, open: true}
			x.instant(e.TS, tid, "begin", map[string]string{"tx": flowID(e.ID)})
		case EvHWAbort, EvSWAbort:
			args := map[string]string{"cause": CauseName(e.Cause)}
			x.instant(e.TS, tid, e.Kind.String(), args)
			if tx.open && e.ID == tx.id {
				x.add(ChromeEvent{
					Name: fmt.Sprintf("attempt %d (%s:%s)", tx.attempt, e.Kind, CauseName(e.Cause)),
					Ph:   "X", Cat: "attempt",
					TS: usec(tx.attempTS), Dur: usec(e.TS - tx.attempTS), TID: tid,
				})
				ph := "t"
				if !tx.flowed {
					ph = "s"
					tx.flowed = true
				}
				x.add(ChromeEvent{Name: "retry", Ph: ph, Cat: "retry",
					TS: usec(e.TS), TID: tid, ID: flowID(tx.id)})
				tx.attempTS = e.TS
				tx.attempt++
			}
		case EvCommit:
			path := PathName(e.Path)
			if tx.open && e.ID == tx.id {
				x.add(ChromeEvent{
					Name: fmt.Sprintf("attempt %d (commit:%s)", tx.attempt, path),
					Ph:   "X", Cat: "attempt",
					TS: usec(tx.attempTS), Dur: usec(e.TS - tx.attempTS), TID: tid,
				})
				x.add(ChromeEvent{
					Name: "tx " + path, Ph: "X", Cat: "tx",
					TS: usec(tx.beginTS), Dur: usec(e.TS - tx.beginTS), TID: tid,
					Args: map[string]string{"tx": flowID(tx.id), "path": path,
						"attempts": fmt.Sprintf("%d", tx.attempt+1)},
				})
				if tx.flowed {
					x.add(ChromeEvent{Name: "retry", Ph: "f", Cat: "retry", BP: "e",
						TS: usec(e.TS), TID: tid, ID: flowID(tx.id)})
				}
			} else {
				x.instant(e.TS, tid, "commit "+path, map[string]string{"tx": flowID(e.ID)})
			}
			tx = openTx{}
		case EvEscalate:
			x.instant(e.TS, tid, e.Kind.String(), map[string]string{"kind": escalateName(e.Arg)})
		default:
			x.instant(e.TS, tid, e.Kind.String(), nil)
		}
	}
}

func escalateName(arg uint64) string {
	switch arg {
	case 0:
		return "budget"
	case 1:
		return "starve"
	}
	return fmt.Sprintf("kind(%d)", arg)
}

// WriteChrome emits the sink's events as a trace-event JSON document.
// Call after the recording workers have quiesced.
func WriteChrome(w io.Writer, s *Sink) error {
	x := &exporter{}
	x.add(ChromeEvent{Name: "process_name", Ph: "M",
		Args: map[string]string{"name": "parthtm"}})
	for _, b := range s.buffers() {
		tid := b.Thread()
		x.add(ChromeEvent{Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]string{"name": fmt.Sprintf("worker-%d", tid)}})
		x.thread(tid, b.Events(nil))
	}
	for _, m := range s.Marks() {
		x.add(ChromeEvent{Name: m.Label, Ph: "i", TS: usec(m.TS), S: "p"})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&ChromeTrace{TraceEvents: x.out, DisplayTimeUnit: "ns"})
}

// WriteText dumps the sink's events as one line per event, globally
// ordered by timestamp, for grepping and quick inspection.
func WriteText(w io.Writer, s *Sink) error {
	marks := s.Marks()
	mi := 0
	for _, e := range s.Events() {
		for mi < len(marks) && marks[mi].TS <= e.TS {
			if _, err := fmt.Fprintf(w, "%12d --- mark %q\n", marks[mi].TS, marks[mi].Label); err != nil {
				return err
			}
			mi++
		}
		if err := writeTextEvent(w, e); err != nil {
			return err
		}
	}
	for ; mi < len(marks); mi++ {
		if _, err := fmt.Fprintf(w, "%12d --- mark %q\n", marks[mi].TS, marks[mi].Label); err != nil {
			return err
		}
	}
	if d := s.Dropped(); d != 0 {
		if _, err := fmt.Fprintf(w, "# %d events overwritten by ring wrap\n", d); err != nil {
			return err
		}
	}
	return nil
}

func writeTextEvent(w io.Writer, e Event) error {
	var err error
	switch e.Kind {
	case EvHWAbort, EvSWAbort:
		_, err = fmt.Fprintf(w, "%12d t%02d %-16s tx=%#x cause=%s\n",
			e.TS, e.Thread, e.Kind, e.ID, CauseName(e.Cause))
	case EvCommit:
		_, err = fmt.Fprintf(w, "%12d t%02d %-16s tx=%#x path=%s\n",
			e.TS, e.Thread, e.Kind, e.ID, PathName(e.Path))
	case EvEscalate:
		_, err = fmt.Fprintf(w, "%12d t%02d %-16s tx=%#x kind=%s\n",
			e.TS, e.Thread, e.Kind, e.ID, escalateName(e.Arg))
	default:
		if e.Arg != 0 {
			_, err = fmt.Fprintf(w, "%12d t%02d %-16s tx=%#x arg=%d\n",
				e.TS, e.Thread, e.Kind, e.ID, e.Arg)
		} else {
			_, err = fmt.Fprintf(w, "%12d t%02d %-16s tx=%#x\n",
				e.TS, e.Thread, e.Kind, e.ID)
		}
	}
	return err
}
