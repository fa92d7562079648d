package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mem"
	"repro/internal/tm"
)

// The traced pass wraps the workload's calls into the systems in spans kept
// in memory: op → atomic → body (one per attempt) → access. Every span
// feeds the per-slice sums the self-time metrics are made of; the spans
// themselves are kept, whole operations at a time, until a track holds
// spanCap of them, which bounds trace-<workload>.json (a single list-10k
// operation is some 10 000 accesses).

type spanKind uint8

const (
	spanOp spanKind = iota
	spanAtomic
	spanBody
	spanAccess
)

var spanNames = [...]string{"op", "atomic", "body", "access"}

const spanCap = 4000

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Op     int    `json:"op"`     // index into the segment's operation stream
	Name   string `json:"name"`
	What   string `json:"what,omitempty"` // access spans: read, write or pause
	Start  int64  `json:"start"`          // ns since the pass began
	End    int64  `json:"end"`
}

// sums are one slice's totals, raw ns.
type sums struct {
	atomicNs, bodyNs, accessNs float64
	atomics, bodies            int
}

func (s *sums) add(o sums) {
	s.atomicNs += o.atomicNs
	s.bodyNs += o.bodyNs
	s.accessNs += o.accessNs
	s.atomics += o.atomics
	s.bodies += o.bodies
}

// recorder is one thread's span track on one system.
type recorder struct {
	epoch time.Time
	spans []span
	keep  bool // the current operation's spans are being kept
	op    int
	start [spanAccess]int64
	open  [spanAccess]int // kept span ids of the open op, atomic and body
	sums  sums
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(kind spanKind, op int) {
	now := r.now()
	if kind == spanOp {
		r.keep = len(r.spans) < spanCap
		r.op = op
	}
	r.start[kind] = now
	if r.keep {
		parent := 0
		if kind > spanOp {
			parent = r.open[kind-1]
		}
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: spanNames[kind], Start: now})
		r.open[kind] = len(r.spans)
	}
}

func (r *recorder) end(kind spanKind) {
	now := r.now()
	d := float64(now - r.start[kind])
	switch kind {
	case spanAtomic:
		r.sums.atomicNs += d
		r.sums.atomics++
	case spanBody:
		r.sums.bodyNs += d
		r.sums.bodies++
	}
	if r.keep {
		r.spans[r.open[kind]-1].End = now
	}
}

// access records one Read, Write or Pause that began at start.
func (r *recorder) access(start int64, what string) {
	now := r.now()
	r.sums.accessNs += float64(now - start)
	if r.keep {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.open[spanBody], Op: r.op,
			Name: spanNames[spanAccess], What: what, Start: start, End: now})
	}
}

// take returns the sums since the last call.
func (r *recorder) take() sums {
	s := r.sums
	r.sums = sums{}
	return s
}

// wrapBody decorates a workload body: each run of it is one body span, and
// the tm.Tx it sees times every access. An attempt that aborts unwinds
// through the body by panic, so the span closes in a defer.
func (r *recorder) wrapBody(body func(tm.Tx)) func(tm.Tx) {
	tx := &tracedTx{rec: r}
	return func(x tm.Tx) {
		tx.Tx = x
		r.begin(spanBody, r.op)
		defer r.end(spanBody)
		body(tx)
	}
}

// tracedTx is the benchmark-owned tm.Tx decorator. Work is the body's own
// computation, so it is left to the body's self time.
type tracedTx struct {
	tm.Tx
	rec *recorder
}

func (t *tracedTx) Read(a mem.Addr) uint64 {
	s := t.rec.now()
	v := t.Tx.Read(a)
	t.rec.access(s, "read")
	return v
}

func (t *tracedTx) Write(a mem.Addr, v uint64) {
	s := t.rec.now()
	t.Tx.Write(a, v)
	t.rec.access(s, "write")
}

func (t *tracedTx) Pause() {
	s := t.rec.now()
	t.Tx.Pause()
	t.rec.access(s, "pause")
}

type track struct {
	System string `json:"system"`
	Thread int    `json:"thread"`
	Spans  []span `json:"spans"`
}

type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Tracks   []track `json:"tracks"`
}

// writeTrace writes the kept spans to out/trace-<workload>.json under dir.
func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
