// Package tm defines the protocol-neutral transactional-memory API that
// every system in this repository implements — Part-HTM, Part-HTM-O, and
// the competitors (HTM-GL, RingSTM, NOrec, NOrecRH) — so that workloads are
// written once and run unchanged against each, exactly as the paper's
// evaluation requires.
package tm

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/abort"
	"repro/internal/mem"
	"repro/internal/perthread"
)

// Tx is the transactional view a workload body operates through. A body may
// be executed several times (aborted attempts are retried by the System),
// so it must be a pure function of its inputs and the values it Reads:
// derive randomness and parameters outside Atomic.
type Tx interface {
	// Read returns the word at a within the transaction.
	Read(a mem.Addr) uint64
	// Write sets the word at a within the transaction.
	Write(a mem.Addr, v uint64)
	// WriteLocal sets a word that is private to the calling thread (a
	// scratch buffer, like STAMP labyrinth's private grid copy). Inside a
	// hardware transaction it still occupies write-buffer capacity — the
	// hardware buffers every store — but the software frameworks do not
	// instrument it: no read/write signatures, no locks, no undo logging.
	// The word's post-transaction value is unspecified if the transaction
	// aborts; only thread-private data may be written through it.
	WriteLocal(a mem.Addr, v uint64)
	// Work models transactional computation of c cycles between memory
	// accesses: it counts against the hardware timer quantum when executed
	// inside a hardware transaction.
	Work(c int64)
	// NonTxWork models computation that is not semantically transactional.
	// Systems that must run it inside a hardware transaction anyway
	// (HTM-GL's single hardware transaction) pay its quantum cost; Part-HTM
	// runs it in the software framework, outside sub-HTM transactions.
	NonTxWork(c int64)
	// Pause marks a partition point: a position where Part-HTM may split
	// the transaction into sub-HTM transactions (the paper's statically
	// profiled breaking points). All other systems ignore it.
	Pause()
	// Thread returns the executing thread's index.
	Thread() int
}

// System is one complete transactional-memory implementation.
type System interface {
	// Name identifies the system in benchmark output ("Part-HTM", ...).
	Name() string
	// Atomic executes body as one transaction on behalf of thread,
	// retrying internally until it commits. thread must be in [0, threads)
	// and each thread value must be used by at most one goroutine at a
	// time.
	//
	// A panic of the body's own is not an abort: it propagates out of
	// Atomic once the system has released what the attempt held, and the
	// call counts as no commit. What the body wrote before it panicked is
	// discarded on the hardware, partitioned and STM paths, but stays in
	// memory on a global-lock path (Part-HTM's and HTM-GL's slow path),
	// which writes in place.
	Atomic(thread int, body func(Tx))
	// Stats returns the system's commit/abort counters.
	Stats() *Stats
	// Memory returns the simulated memory the system operates on.
	Memory() *mem.Memory
}

// Counter is one sharded counter cell. It is single-writer: only the
// thread owning the enclosing Shard increments it, so an increment is a
// plain load+store pair on a private cache line — no cross-thread
// read-modify-write. It is NOT safe for concurrent writers: two threads
// incrementing the same Counter lose updates, which the race detector
// does not report (the cell is an atomic). The commit-count checks hold
// the ownership rule instead: tmtest.CounterStress and
// exec.TestGovernorBreakerHammer count every commit exactly, under go test
// and in the CI -race list. Any thread may read it concurrently (Snapshot
// does).
//
// All methods tolerate a nil receiver as a no-op, so degraded paths that
// lost their shard pointer record nothing rather than crash.
type Counter struct{ v atomic.Uint64 }

// Inc adds one (owner thread only).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Store(c.v.Load() + 1)
}

// Add adds n (owner thread only).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Store(c.v.Load() + n)
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// counters is the list of Stats counters, declared once: Shard holds it as
// Counter cells and Snapshot as plain values, and the json tags name the
// report keys and the flight recorder's CSV columns. Every field is one
// eight-byte word, so the list is also an array (list); code that treats
// every counter alike walks that array instead of naming fields. Commit
// counters are split by execution path so Table 1 of the paper can be
// regenerated; abort counters follow the hardware abort taxonomy with
// Aborted-by-validation mapped to Conflict.
type counters[T any] struct {
	CommitsHTM T `json:"commits_htm"` // committed as a single hardware transaction
	CommitsSW  T `json:"commits_sw"`  // committed by the software framework / STM path
	CommitsGL  T `json:"commits_gl"`  // committed under the global lock

	AbortsConflict T `json:"aborts_conflict"`
	AbortsCapacity T `json:"aborts_capacity"`
	AbortsExplicit T `json:"aborts_explicit"`
	AbortsOther    T `json:"aborts_other"`

	// SerialNanos accumulates time spent in globally serializing critical
	// sections — global-lock holds, STM write-back windows, ring-entry
	// publication — during which no other transaction can commit. The
	// harness uses it to project single-core measurements onto N cores
	// (Amdahl): estimated wall = serial + (measured - serial)/N.
	SerialNanos T `json:"serial_nanos"`

	// Contention-manager escalations: transactions forced onto the
	// global-lock path ahead of the normal retry schedule because the
	// hardware-abort budget ran out or because their starvation score
	// reached the threshold.
	EscalationsBudget T `json:"escalations_budget"`
	EscalationsStarve T `json:"escalations_starve"`

	// FaultsInjected counts aborts this system absorbed that were forced by
	// the fault injector (exactly zero when no injector is installed).
	FaultsInjected T `json:"faults_injected"`

	// Resource-governor outcomes (exactly zero when no governor is
	// attached). The breaker counters follow the per-thread HTM circuit
	// breaker: trips (closed→open), half-open probe transactions, closes
	// (probe committed in hardware), and transactions routed direct-to-slow
	// while open. WatchdogAlarms counts progress-watchdog alarms (recorded
	// by the watchdog's own shard slot).
	BreakerTrips   T `json:"breaker_trips,omitempty"`
	BreakerProbes  T `json:"breaker_probes,omitempty"`
	BreakerCloses  T `json:"breaker_closes,omitempty"`
	BreakerSlow    T `json:"breaker_slow,omitempty"`
	WatchdogAlarms T `json:"watchdog_alarms,omitempty"`

	// Sharded memory domains (exactly zero on single-domain topologies).
	// CrossDomainCommits/CrossDomainAborts count committed and aborted
	// attempts whose footprint touched two or more domains; the last counts
	// validations that failed because a domain's ring lapped the validator.
	CrossDomainCommits  T `json:"cross_domain_commits,omitempty"`
	CrossDomainAborts   T `json:"cross_domain_aborts,omitempty"`
	DomainRingRollovers T `json:"domain_ring_rollovers,omitempty"`
}

// numCounters is the length of the counter list.
const numCounters = unsafe.Sizeof(counters[uint64]{}) / 8

// list views the counters as an array, in declaration order.
func (c *counters[T]) list() *[numCounters]T {
	return (*[numCounters]T)(unsafe.Pointer(c))
}

// Shard is one thread's private cell of the Stats counters.
type Shard struct {
	counters[Counter]

	// Padding to a multiple of the cache-line size so neighbouring shards
	// never share a line even if an allocator packs them back to back.
	_ [64 - (numCounters*8)%64]byte
}

// AddSerial records d of globally serialized execution.
func (sh *Shard) AddSerial(d time.Duration) { sh.SerialNanos.Add(uint64(d)) }

// RecordAbort classifies an abort result into the counters.
func (sh *Shard) RecordAbort(r abort.Reason) {
	switch r {
	case abort.Conflict:
		sh.AbortsConflict.Inc()
	case abort.Capacity:
		sh.AbortsCapacity.Inc()
	case abort.Explicit:
		sh.AbortsExplicit.Inc()
	case abort.Other:
		sh.AbortsOther.Inc()
	}
}

// Snapshot copies the shard's counters. Any thread may take it while the
// owner runs.
func (sh *Shard) Snapshot() Snapshot {
	var out Snapshot
	out.add(sh)
	return out
}

// Stats aggregates transaction outcomes across per-thread shards. The hot
// path — a commit or abort increment — touches only the calling thread's
// cache-line-padded Shard; the shards are summed only when a report is
// taken via Snapshot (or the aggregate helpers). The zero value is ready to
// use: shards materialize on first access.
type Stats struct {
	shards perthread.Set[Shard]
}

// Shard returns thread's private counter cell, growing the shard set as
// needed. Callers on a measured path should cache the pointer per thread.
func (s *Stats) Shard(thread int) *Shard { return s.shards.Get(thread) }

// The convenience accessors below each take a full Snapshot per call:
// two calls sum the live shards twice and may observe different values
// while workers are running. When a report line needs more than one
// figure, call Snapshot() once and read the fields of that one coherent
// copy instead.

// Escalations returns the total contention-manager escalations.
func (s *Stats) Escalations() uint64 { return s.Snapshot().Escalations() }

// Commits returns the total committed transactions across all paths.
func (s *Stats) Commits() uint64 { return s.Snapshot().Commits() }

// Aborts returns the total aborted transaction attempts.
func (s *Stats) Aborts() uint64 { return s.Snapshot().Aborts() }

// SerialNanos returns the accumulated globally-serialized execution time.
func (s *Stats) SerialNanos() int64 { return int64(s.Snapshot().SerialNanos) }

// Reset zeroes every counter (between measurement phases). Existing Shard
// pointers remain valid: counters are cleared in place.
func (s *Stats) Reset() {
	for _, sh := range s.shards.All() {
		c := sh.list()
		for i := range c {
			c[i].v.Store(0)
		}
	}
}

// Snapshot is a plain copy of the counters for reporting.
type Snapshot counters[uint64]

// Counters returns the snapshot's counters as an array, in declaration
// order: the order of its json keys.
func (s *Snapshot) Counters() *[numCounters]uint64 { return (*counters[uint64])(s).list() }

// add folds the shard's counters into the snapshot.
func (s *Snapshot) add(sh *Shard) {
	o, c := s.Counters(), sh.list()
	for i := range c {
		o[i] += c[i].Load()
	}
}

// Snapshot sums the per-thread shards into one coherent copy.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	for _, sh := range s.shards.All() {
		out.add(sh)
	}
	return out
}

// Delta returns the per-counter difference s - prev, each counter clamped
// at zero. It turns two cumulative snapshots into the activity between
// them — the rate view the flight recorder's triggers read — and tolerates a
// Stats.Reset between the two samples (every counter of the later snapshot
// is then smaller, and the delta reads zero rather than underflowing).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	o, a, b := d.Counters(), s.Counters(), prev.Counters()
	for i := range o {
		if a[i] > b[i] {
			o[i] = a[i] - b[i]
		}
	}
	return d
}

// Escalations of the snapshot across all escalation kinds.
func (s Snapshot) Escalations() uint64 {
	return s.EscalationsBudget + s.EscalationsStarve
}

// Commits of the snapshot across all paths.
func (s Snapshot) Commits() uint64 { return s.CommitsHTM + s.CommitsSW + s.CommitsGL }

// Aborts of the snapshot across all reasons.
func (s Snapshot) Aborts() uint64 {
	return s.AbortsConflict + s.AbortsCapacity + s.AbortsExplicit + s.AbortsOther
}

// Software-barrier cost calibration.
//
// The simulator's base memory access (a line-locked word access, ~40ns;
// ~50ns when these constants were calibrated) stands in for a ~1ns hardware
// cache access, which deflates every *software* overhead around it by more
// than an order of magnitude relative to real machines. To preserve the paper's cost ordering — hardware
// transactional accesses ≈ free, lightly-instrumented sub-HTM accesses
// slightly dearer, full STM barriers several times dearer — the pure-STM
// systems (NOrec, RingSTM, and NOrecRH's software path) charge these
// additional Spin units per barrier, calibrated so an STM read costs ~4x a
// plain simulated access, matching the relative per-barrier costs reported
// for these algorithms on real hardware.
const (
	// SWReadBarrier is the extra modelled cost of one STM read barrier.
	SWReadBarrier = 150
	// SWWriteBarrier is the extra modelled cost of one STM write barrier.
	SWWriteBarrier = 100
)

// Spin burns roughly c small work units of CPU so that modelled computation
// consumes real wall-clock time in throughput measurements. Long
// computations yield periodically so that, on hosts with fewer cores than
// worker threads, transactions still interleave at fine grain — without
// the yields, timeshared goroutines would almost never overlap and
// contention phenomena (conflict aborts, lock waiting) would vanish from
// the measurements.
func Spin(c int64) {
	var x int64
	for i := int64(0); i < c; i++ {
		x += i ^ (x >> 3)
		if i&4095 == 4095 {
			spinSink.Store(x)
			runtime.Gosched()
		}
	}
	spinSink.Store(x) // keep the loop from being optimized away
}

var spinSink atomic.Int64
