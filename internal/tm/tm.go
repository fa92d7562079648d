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

	"repro/internal/htm"
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

// Shard is one thread's private cell of the Stats counters. Commit counters
// are split by execution path so Table 1 of the paper can be regenerated;
// abort counters follow the hardware abort taxonomy with
// Aborted-by-validation mapped to Conflict. Field names mirror Snapshot
// field for field (enforced by reflection in the tests).
type Shard struct {
	CommitsHTM Counter // committed as a single hardware transaction
	CommitsSW  Counter // committed by the software framework / STM path
	CommitsGL  Counter // committed under the global lock

	AbortsConflict Counter
	AbortsCapacity Counter
	AbortsExplicit Counter
	AbortsOther    Counter

	// SerialNanos accumulates time spent in globally serializing critical
	// sections — global-lock holds, STM write-back windows, ring-entry
	// publication — during which no other transaction can commit. The
	// harness uses it to project single-core measurements onto N cores
	// (Amdahl): estimated wall = serial + (measured - serial)/N.
	SerialNanos Counter

	// Contention-manager escalations: transactions forced onto the
	// global-lock path ahead of the normal retry schedule because the
	// hardware-abort budget ran out or because their starvation score
	// reached the threshold.
	EscalationsBudget Counter
	EscalationsStarve Counter

	// FaultsInjected counts aborts this system absorbed that were forced by
	// the fault injector (exactly zero when no injector is installed).
	FaultsInjected Counter

	// Resource-governor outcomes (exactly zero when no governor is
	// attached). The breaker counters follow the per-thread HTM circuit
	// breaker: trips (closed→open), half-open probe transactions, closes
	// (probe committed in hardware), and transactions routed direct-to-slow
	// while open. WatchdogAlarms counts progress-watchdog alarms (recorded
	// by the watchdog's own shard slot).
	BreakerTrips   Counter
	BreakerProbes  Counter
	BreakerCloses  Counter
	BreakerSlow    Counter
	WatchdogAlarms Counter

	// Sharded memory domains (exactly zero on single-domain topologies).
	// CrossDomainCommits/CrossDomainAborts count committed and aborted
	// attempts whose footprint touched two or more domains;
	// DomainRingRollovers counts validations that failed because a domain's
	// ring lapped the validator.
	CrossDomainCommits  Counter
	CrossDomainAborts   Counter
	DomainRingRollovers Counter

	// Padding to a multiple of the cache-line size so neighbouring shards
	// never share a line even if an allocator packs them back to back.
	_ [64 - (19*8)%64]byte
}

// AddSerial records d of globally serialized execution.
func (sh *Shard) AddSerial(d time.Duration) { sh.SerialNanos.Add(uint64(d)) }

// RecordAbort classifies an abort result into the counters.
func (sh *Shard) RecordAbort(r htm.AbortReason) {
	switch r {
	case htm.Conflict:
		sh.AbortsConflict.Inc()
	case htm.Capacity:
		sh.AbortsCapacity.Inc()
	case htm.Explicit:
		sh.AbortsExplicit.Inc()
	case htm.Other:
		sh.AbortsOther.Inc()
	}
}

// reset zeroes every counter of the shard.
func (sh *Shard) reset() {
	sh.CommitsHTM.v.Store(0)
	sh.CommitsSW.v.Store(0)
	sh.CommitsGL.v.Store(0)
	sh.AbortsConflict.v.Store(0)
	sh.AbortsCapacity.v.Store(0)
	sh.AbortsExplicit.v.Store(0)
	sh.AbortsOther.v.Store(0)
	sh.SerialNanos.v.Store(0)
	sh.EscalationsBudget.v.Store(0)
	sh.EscalationsStarve.v.Store(0)
	sh.FaultsInjected.v.Store(0)
	sh.BreakerTrips.v.Store(0)
	sh.BreakerProbes.v.Store(0)
	sh.BreakerCloses.v.Store(0)
	sh.BreakerSlow.v.Store(0)
	sh.WatchdogAlarms.v.Store(0)
	sh.CrossDomainCommits.v.Store(0)
	sh.CrossDomainAborts.v.Store(0)
	sh.DomainRingRollovers.v.Store(0)
}

// add folds the shard into a snapshot.
func (sh *Shard) add(out *Snapshot) {
	out.CommitsHTM += sh.CommitsHTM.Load()
	out.CommitsSW += sh.CommitsSW.Load()
	out.CommitsGL += sh.CommitsGL.Load()
	out.AbortsConflict += sh.AbortsConflict.Load()
	out.AbortsCapacity += sh.AbortsCapacity.Load()
	out.AbortsExplicit += sh.AbortsExplicit.Load()
	out.AbortsOther += sh.AbortsOther.Load()
	out.SerialNanos += int64(sh.SerialNanos.Load())
	out.EscalationsBudget += sh.EscalationsBudget.Load()
	out.EscalationsStarve += sh.EscalationsStarve.Load()
	out.FaultsInjected += sh.FaultsInjected.Load()
	out.BreakerTrips += sh.BreakerTrips.Load()
	out.BreakerProbes += sh.BreakerProbes.Load()
	out.BreakerCloses += sh.BreakerCloses.Load()
	out.BreakerSlow += sh.BreakerSlow.Load()
	out.WatchdogAlarms += sh.WatchdogAlarms.Load()
	out.CrossDomainCommits += sh.CrossDomainCommits.Load()
	out.CrossDomainAborts += sh.CrossDomainAborts.Load()
	out.DomainRingRollovers += sh.DomainRingRollovers.Load()
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
func (s *Stats) SerialNanos() int64 { return s.Snapshot().SerialNanos }

// Reset zeroes every counter (between measurement phases). Existing Shard
// pointers remain valid: counters are cleared in place.
func (s *Stats) Reset() {
	for _, sh := range s.shards.All() {
		sh.reset()
	}
}

// Snapshot is a plain copy of the counters for reporting.
type Snapshot struct {
	CommitsHTM          uint64 `json:"commits_htm"`
	CommitsSW           uint64 `json:"commits_sw"`
	CommitsGL           uint64 `json:"commits_gl"`
	AbortsConflict      uint64 `json:"aborts_conflict"`
	AbortsCapacity      uint64 `json:"aborts_capacity"`
	AbortsExplicit      uint64 `json:"aborts_explicit"`
	AbortsOther         uint64 `json:"aborts_other"`
	SerialNanos         int64  `json:"serial_nanos"`
	EscalationsBudget   uint64 `json:"escalations_budget"`
	EscalationsStarve   uint64 `json:"escalations_starve"`
	FaultsInjected      uint64 `json:"faults_injected"`
	BreakerTrips        uint64 `json:"breaker_trips,omitempty"`
	BreakerProbes       uint64 `json:"breaker_probes,omitempty"`
	BreakerCloses       uint64 `json:"breaker_closes,omitempty"`
	BreakerSlow         uint64 `json:"breaker_slow,omitempty"`
	WatchdogAlarms      uint64 `json:"watchdog_alarms,omitempty"`
	CrossDomainCommits  uint64 `json:"cross_domain_commits,omitempty"`
	CrossDomainAborts   uint64 `json:"cross_domain_aborts,omitempty"`
	DomainRingRollovers uint64 `json:"domain_ring_rollovers,omitempty"`
}

// Snapshot sums the per-thread shards into one coherent copy.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	for _, sh := range s.shards.All() {
		sh.add(&out)
	}
	return out
}

// sub returns a-b clamped at zero, so a counter that was Reset between
// two snapshots (prev larger than cur) reads as zero progress instead of
// wrapping around.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Delta returns the per-counter difference s - prev, each field clamped
// at zero. It turns two cumulative snapshots into the activity between
// them — the rate view the flight recorder's triggers read — and tolerates a
// Stats.Reset between the two samples (every field of the later snapshot
// is then smaller, and the delta reads zero rather than underflowing).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		CommitsHTM:          sub(s.CommitsHTM, prev.CommitsHTM),
		CommitsSW:           sub(s.CommitsSW, prev.CommitsSW),
		CommitsGL:           sub(s.CommitsGL, prev.CommitsGL),
		AbortsConflict:      sub(s.AbortsConflict, prev.AbortsConflict),
		AbortsCapacity:      sub(s.AbortsCapacity, prev.AbortsCapacity),
		AbortsExplicit:      sub(s.AbortsExplicit, prev.AbortsExplicit),
		AbortsOther:         sub(s.AbortsOther, prev.AbortsOther),
		EscalationsBudget:   sub(s.EscalationsBudget, prev.EscalationsBudget),
		EscalationsStarve:   sub(s.EscalationsStarve, prev.EscalationsStarve),
		FaultsInjected:      sub(s.FaultsInjected, prev.FaultsInjected),
		BreakerTrips:        sub(s.BreakerTrips, prev.BreakerTrips),
		BreakerProbes:       sub(s.BreakerProbes, prev.BreakerProbes),
		BreakerCloses:       sub(s.BreakerCloses, prev.BreakerCloses),
		BreakerSlow:         sub(s.BreakerSlow, prev.BreakerSlow),
		WatchdogAlarms:      sub(s.WatchdogAlarms, prev.WatchdogAlarms),
		CrossDomainCommits:  sub(s.CrossDomainCommits, prev.CrossDomainCommits),
		CrossDomainAborts:   sub(s.CrossDomainAborts, prev.CrossDomainAborts),
		DomainRingRollovers: sub(s.DomainRingRollovers, prev.DomainRingRollovers),
	}
	if s.SerialNanos > prev.SerialNanos {
		d.SerialNanos = s.SerialNanos - prev.SerialNanos
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
