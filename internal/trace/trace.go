// Package trace is the transaction-lifecycle flight recorder: per-thread,
// fixed-capacity, allocation-free event ring buffers recording every step
// a transaction takes through a TM system — begin, hardware aborts with
// their cause, path transitions fast→partitioned→slow, sub-HTM
// begin/commit, lock-signature traffic, ring publication, lemming waits,
// contention-manager escalations, and the final commit — plus per-path
// and per-abort-cause latency histograms.
//
// # Memory model
//
// A Sink owns one Buffer and one LatShard per worker thread, each padded
// so neighbouring threads never share a cache line. A Buffer is
// single-writer: only the owning thread records into it (the same
// discipline tm.Stats shards follow), so recording is a bounds-masked
// store into a preallocated array plus a plain cursor bump — no locks, no
// atomic read-modify-write, and no allocation. Readers (the exporters)
// must run after the writers have quiesced (the harness joins its worker
// goroutines before exporting); the ring keeps the most recent Cap events
// per thread, silently overwriting the oldest — a flight recorder, not a
// complete log.
//
// # Timestamps and hardware windows
//
// Events carry a monotonic nanosecond timestamp obtained from Now. Now
// reads the clock (time.Since) and therefore must never run inside a
// simulated hardware-transaction window — on real TSX the vDSO clock read
// can abort the transaction, and the parthtm-vet htmregion walk flags
// that clock read in any window that reaches it. Record* methods, by
// contrast, are htmsafe by construction (no allocation, no
// fmt/time/sync, no scheduler calls — the same walk passes them):
// callers take the timestamp outside the window and may then record from
// anywhere. In this repository every recording site sits outside hardware
// windows anyway; the split keeps the discipline checkable.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/perthread"
	"repro/internal/trace/hist"
)

// Kind enumerates the transaction lifecycle events.
type Kind uint8

const (
	// EvNone is the zero Kind; it marks unused ring slots.
	EvNone Kind = iota
	// EvBegin opens a transaction (ID identifies it; retries keep the ID).
	EvBegin
	// EvCommit closes a transaction; Path carries the committing path.
	EvCommit
	// EvPathFast marks entry into the fast (whole-hardware) level.
	EvPathFast
	// EvPathPart marks the transition onto the partitioned/software level.
	EvPathPart
	// EvPathSlow marks the transition onto the slow (global-lock) level.
	EvPathSlow
	// EvHWAbort is a hardware abort; Cause carries the abort taxonomy.
	EvHWAbort
	// EvSWAbort is a software-level abort (validation/conflict).
	EvSWAbort
	// EvSubBegin opens one sub-HTM transaction (partitioned path).
	EvSubBegin
	// EvSubCommit commits one sub-HTM transaction.
	EvSubCommit
	// EvLockAcq marks write-lock publication (signature bits or cells).
	EvLockAcq
	// EvLockRel marks write-lock release.
	EvLockRel
	// EvRingPub marks a ring publication (software commit made visible).
	EvRingPub
	// EvLemmingEnter marks the start of a wait on the optimistic gate.
	EvLemmingEnter
	// EvLemmingExit marks the end of that wait, when the gate opened.
	EvLemmingExit
	// EvEscalate is a contention-manager escalation; Arg is the kind
	// (0 budget, 1 starve).
	EvEscalate
	// EvBreakerTrip marks a thread's HTM circuit breaker opening.
	EvBreakerTrip
	// EvBreakerProbe marks a half-open probe transaction (hardware retried
	// while the breaker is otherwise open).
	EvBreakerProbe
	// EvBreakerClose marks the breaker closing after a successful probe.
	EvBreakerClose
	// EvWatchdog is a progress-watchdog alarm; Arg packs the alarm kind in
	// the high 32 bits and the offending thread in the low 32.
	EvWatchdog
	// EvDomainAcquire marks a cross-domain transaction publishing its
	// write-locks bits into one domain's signature (Arg = domain index).
	EvDomainAcquire
	// EvDomainPublish marks a cross-domain global commit publishing one
	// domain's ring entry (Arg = domain index).
	EvDomainPublish
	// EvDomainRelease marks a cross-domain commit or abort releasing one
	// domain's write-locks bits (Arg = domain index).
	EvDomainRelease

	kindCount
)

var kindNames = [kindCount]string{
	EvNone:          "none",
	EvBegin:         "begin",
	EvCommit:        "commit",
	EvPathFast:      "path-fast",
	EvPathPart:      "path-partitioned",
	EvPathSlow:      "path-slow",
	EvHWAbort:       "hw-abort",
	EvSWAbort:       "sw-abort",
	EvSubBegin:      "sub-begin",
	EvSubCommit:     "sub-commit",
	EvLockAcq:       "lock-acquire",
	EvLockRel:       "lock-release",
	EvRingPub:       "ring-publish",
	EvLemmingEnter:  "lemming-enter",
	EvLemmingExit:   "lemming-exit",
	EvEscalate:      "escalate",
	EvBreakerTrip:   "breaker-trip",
	EvBreakerProbe:  "breaker-probe",
	EvBreakerClose:  "breaker-close",
	EvWatchdog:      "watchdog-alarm",
	EvDomainAcquire: "domain-acquire",
	EvDomainPublish: "domain-publish",
	EvDomainRelease: "domain-release",
}

// String returns the event kind's stable lower-case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Execution paths, in the order of the tm.Stats commit counters. The
// values mirror the commit-path split (HTM / SW / GL) every system
// reports.
const (
	PathHTM uint8 = iota // committed as hardware transaction(s)
	PathSW               // committed by the software framework / STM
	PathGL               // committed under the global lock
	PathCount
)

// PathName returns the stable short name of an execution path.
func PathName(p uint8) string {
	switch p {
	case PathHTM:
		return "htm"
	case PathSW:
		return "sw"
	case PathGL:
		return "gl"
	}
	return fmt.Sprintf("path(%d)", p)
}

// Abort causes, mirroring the htm.AbortReason taxonomy (trace does not
// import htm so the hardware model stays below this layer; exec converts
// with a plain uint8 cast, pinned by a test there).
const (
	CauseNone     uint8 = iota
	CauseConflict       // another thread touched a monitored line
	CauseCapacity       // transactional footprint exceeded the cache
	CauseExplicit       // the program aborted (xabort)
	CauseOther          // any other hardware event (timer interrupt)
	CauseCount
)

// CauseName returns the stable short name of an abort cause.
func CauseName(c uint8) string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	case CauseOther:
		return "other"
	}
	return fmt.Sprintf("cause(%d)", c)
}

// Event is one fixed-size lifecycle record. ID ties every event of one
// transaction together across its retries: the exporter links them with
// flow arrows.
type Event struct {
	TS     int64  // monotonic nanoseconds (trace.Now)
	ID     uint64 // thread<<32 | per-thread transaction sequence
	Arg    uint64 // event-specific payload
	Kind   Kind
	Cause  uint8 // abort taxonomy (EvHWAbort/EvSWAbort)
	Path   uint8 // execution path (EvCommit)
	Thread int32
}

// base anchors the monotonic clock; Durations from one process share it.
var base = time.Now()

// Now returns a monotonic nanosecond timestamp. It reads the clock and
// must be called outside hardware-transaction windows (htmregion's walk
// flags the time.Since below in any window that reaches it); pass the
// result to Record*.
func Now() int64 { return time.Since(base).Nanoseconds() }

// Buffer is one thread's event ring. Only the owning thread may call
// Record*; any goroutine may snapshot it after the writer has quiesced.
// The trailing padding keeps the write cursor of neighbouring buffers on
// distinct cache lines.
type Buffer struct {
	ev     []Event
	mask   uint64
	pos    uint64
	thread int32
	_      [64 - 8*3 - 4]byte
}

// Record appends one event (owner thread only). It is allocation-free
// and htmsafe by construction: a masked array store and a cursor bump.
// All Record* methods tolerate a nil receiver as a no-op, so the disabled
// fast path is a single branch.
func (b *Buffer) Record(ts int64, k Kind, id, arg uint64, cause, path uint8) {
	if b == nil {
		return
	}
	b.ev[b.pos&b.mask] = Event{
		TS: ts, ID: id, Arg: arg,
		Kind: k, Cause: cause, Path: path, Thread: b.thread,
	}
	b.pos++
}

// RecordMark is Record with no transaction context (id 0): protocol-level
// markers such as watchdog alarms.
func (b *Buffer) RecordMark(ts int64, k Kind, arg uint64) {
	b.Record(ts, k, 0, arg, 0, 0)
}

// Thread returns the buffer's owning thread index.
func (b *Buffer) Thread() int {
	if b == nil {
		return 0
	}
	return int(b.thread)
}

// Len returns the number of live events in the ring (at most Cap).
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	if b.pos < uint64(len(b.ev)) {
		return int(b.pos)
	}
	return len(b.ev)
}

// Cap returns the ring capacity.
func (b *Buffer) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.ev)
}

// Dropped returns how many events the ring overwrote.
func (b *Buffer) Dropped() uint64 {
	if b == nil || b.pos < uint64(len(b.ev)) {
		return 0
	}
	return b.pos - uint64(len(b.ev))
}

// Events appends the ring's live events in recording order to out and
// returns the result. Call only after the owning thread has quiesced.
func (b *Buffer) Events(out []Event) []Event {
	if b == nil {
		return out
	}
	n := uint64(len(b.ev))
	start := uint64(0)
	if b.pos > n {
		start = b.pos - n
	}
	for i := start; i < b.pos; i++ {
		out = append(out, b.ev[i&b.mask])
	}
	return out
}

// LatShard is one thread's latency histograms: commit latency per
// execution path and begin-to-abort latency per abort cause. Same
// single-writer discipline as Buffer.
type LatShard struct {
	Path  [PathCount]hist.Histogram
	Abort [CauseCount]hist.Histogram
	_     [64]byte
}

// Mark is one labelled instant in the trace (the harness marks each
// system/rate run so one sink can record a whole sweep).
type Mark struct {
	TS    int64
	Label string
}

// Sink owns the per-thread buffers and latency shards of one tracing
// session. A nil *Sink disables tracing everywhere it is plumbed. The hot
// path (Record) touches only the calling thread's buffer.
type Sink struct {
	bufs perthread.Set[Buffer]
	lats perthread.Set[LatShard]

	mu    sync.Mutex // guards marks
	marks []Mark
}

// DefaultCap is the per-thread ring capacity used when NewSink is given a
// non-positive capacity: 8k events ≈ 256 KiB per worker.
const DefaultCap = 1 << 13

// NewSink creates a sink whose per-thread rings hold capPerThread events
// (rounded up to a power of two; <= 0 selects DefaultCap).
func NewSink(capPerThread int) *Sink {
	if capPerThread <= 0 {
		capPerThread = DefaultCap
	}
	c := 1
	for c < capPerThread {
		c <<= 1
	}
	s := new(Sink)
	s.bufs.Init(func(i int) *Buffer {
		return &Buffer{ev: make([]Event, c), mask: uint64(c - 1), thread: int32(i)}
	})
	return s
}

// Thread returns thread id's event buffer, growing the set as needed.
// Callers on a measured path must cache the pointer per thread.
func (s *Sink) Thread(id int) *Buffer {
	if s == nil {
		return nil
	}
	return s.bufs.Get(id)
}

// Lat returns thread id's latency shard, growing the set as needed.
func (s *Sink) Lat(id int) *LatShard {
	if s == nil {
		return nil
	}
	return s.lats.Get(id)
}

// Mark records one labelled instant (not on the hot path; harness use).
func (s *Sink) Mark(label string) {
	if s == nil {
		return
	}
	ts := Now()
	s.mu.Lock()
	s.marks = append(s.marks, Mark{TS: ts, Label: label})
	s.mu.Unlock()
}

// Marks returns a copy of the recorded marks.
func (s *Sink) Marks() []Mark {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Mark, len(s.marks))
	copy(out, s.marks)
	return out
}

// buffers returns the current buffer set.
func (s *Sink) buffers() []*Buffer {
	if s == nil {
		return nil
	}
	return s.bufs.All()
}

// latShards returns the current latency-shard set.
func (s *Sink) latShards() []*LatShard {
	if s == nil {
		return nil
	}
	return s.lats.All()
}

// Events returns every live event across all threads, sorted by
// timestamp (ties broken by thread, then recording order, which the sort's
// stability preserves per buffer). Call after the workers have quiesced.
func (s *Sink) Events() []Event {
	var out []Event
	for _, b := range s.buffers() {
		out = b.Events(out)
	}
	sortEvents(out)
	return out
}

// Dropped returns the total events overwritten across all rings.
func (s *Sink) Dropped() uint64 {
	var n uint64
	for _, b := range s.buffers() {
		n += b.Dropped()
	}
	return n
}

// LatencyStat summarizes one histogram for reporting.
type LatencyStat struct {
	Count              uint64
	P50, P95, P99, Max int64
	Mean               float64
}

// statOf summarizes a merged histogram.
func statOf(h *hist.Histogram) LatencyStat {
	return LatencyStat{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
		Mean:  h.Mean(),
	}
}

// LatencySnapshot is the merged view of every thread's latency shard.
type LatencySnapshot struct {
	Path  [PathCount]LatencyStat  // commit latency per execution path
	Abort [CauseCount]LatencyStat // begin-to-abort latency per cause
}

// Latency merges the per-thread shards into one snapshot. Concurrent
// single-writer recording may still be in flight; the snapshot then
// reflects some coherent prefix per shard.
func (s *Sink) Latency() LatencySnapshot {
	var snap LatencySnapshot
	shards := s.latShards()
	for p := 0; p < int(PathCount); p++ {
		var m hist.Histogram
		for _, sh := range shards {
			m.Merge(&sh.Path[p])
		}
		snap.Path[p] = statOf(&m)
	}
	for c := 0; c < int(CauseCount); c++ {
		var m hist.Histogram
		for _, sh := range shards {
			m.Merge(&sh.Abort[c])
		}
		snap.Abort[c] = statOf(&m)
	}
	return snap
}

// ResetLatency zeroes every latency shard (between report rows; call with
// the workers quiesced).
func (s *Sink) ResetLatency() {
	for _, sh := range s.latShards() {
		for p := range sh.Path {
			sh.Path[p].Reset()
		}
		for c := range sh.Abort {
			sh.Abort[c].Reset()
		}
	}
}

// sortEvents orders events by (TS, Thread); stability preserves each
// buffer's recording order among equal timestamps.
func sortEvents(ev []Event) {
	sort.SliceStable(ev, func(i, j int) bool {
		if ev[i].TS != ev[j].TS {
			return ev[i].TS < ev[j].TS
		}
		return ev[i].Thread < ev[j].Thread
	})
}
