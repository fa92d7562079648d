// Package core implements Part-HTM — the paper's contribution — and its
// opacity-preserving variant Part-HTM-O.
//
// Part-HTM commits transactions that best-effort HTM cannot commit because
// of resource (space/time) limitations, without falling back to the global
// lock: it splits them into multiple sub-HTM transactions and stitches
// those back into one isolated, serializable global transaction with a thin
// software framework built on Bloom-filter signatures, a shared write-locks
// signature, a RingSTM-style ring of committed write signatures, and a
// value-based undo log.
//
// Execution follows the paper's three paths:
//
//   - fast path: the whole transaction as one lightly instrumented hardware
//     transaction (Figure 1, lines 1–15);
//   - partitioned path: a chain of sub-HTM transactions with eager writes,
//     write locks, in-flight validation and undo-based rollback (lines
//     16–60);
//   - slow path: global lock, mutual exclusion with everything else (lines
//     61–65).
//
// Partition points come from tm.Tx.Pause calls placed in the workload — the
// equivalent of the paper's statically profiled breaking points — and from
// per-thread segment budgets, activated at run time. What a sub-HTM
// transaction holds is known in one place, the hardware transaction itself:
// this package keeps no estimate beside it and asks htm.Txn.Footprint. What
// fits is remembered rather than re-learned by aborting (segBudgets): the
// largest footprint that has committed, the budget a fresh transaction starts
// from, and the budget of the running one, which a resource abort halves for
// the retry and the end of the transaction restores.
//
// A sub-HTM commit pays for the shared write-locks signature by the cache
// line, as the paper lays it out to (four lines): four ReadLines fetch it and
// one WriteLine per line that changes publishes the segment's lock bits.
//
// When a sub-HTM transaction aborts retryably, the enclosing global
// transaction is re-executed in replay mode: operations of already-committed
// sub-HTM transactions are served from an operation log (reads return the
// logged values, writes are suppressed — their effects are already in
// memory), and execution switches back to live mode at the first un-replayed
// operation. This reproduces the paper's "sub-HTM transactions retry a
// limited number of times" without requiring segment bodies to be separately
// re-enterable closures.
//
// The paper's §2 extension to Hardware Lock Elision — "applying Part-HTM to
// HLE's first speculative trial before the lock acquisition is a simple
// extension" — is System.Atomic called as the critical section of a
// lock-shaped API: a section too big or too long for the hardware runs as a
// partitioned transaction instead of acquiring the lock, and only the slow
// path ever excludes everything. (Classic HLE is htmgl.Config{Retries: 1}.)
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sig"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Explicit abort codes used inside hardware transactions.
const (
	// codeGLock: the global lock was held at hardware begin.
	codeGLock uint8 = 1
	// codeLockHit: fast-path commit validation found a read or written
	// location locked by a partitioned transaction.
	codeLockHit uint8 = 2
	// codeLockConflict: a sub-HTM transaction touched a location locked by
	// another global transaction — propagates to a global abort.
	codeLockConflict uint8 = 3
	// codeTsChanged: Part-HTM-O's timestamp subscription observed a new
	// commit at sub-HTM begin — validate, then retry the sub-transaction.
	codeTsChanged uint8 = 4
)

// RingSize is the number of entries in each domain's global ring.
const RingSize = 1024

// Config tunes Part-HTM. The zero value is Part-HTM as the paper evaluates
// it.
type Config struct {
	// NoFastPath starts every transaction directly on the partitioned path
	// (the Part-HTM-no-fast variant of Figure 3(b)).
	NoFastPath bool
	// Opaque selects Part-HTM-O (Figure 2): address-embedded write locks
	// checked at encounter time (a segment's writes check theirs at its
	// sub-commit) plus timestamp subscription at sub-HTM begin, guaranteeing
	// opacity.
	Opaque bool
	// Domains shards the memory substrate into this many independent
	// domains, each with its own ring and write-locks signature
	// (internal/domain). 0 and 1 both select the single-domain topology,
	// which is byte-for-byte identical to the pre-domain protocol.
	// Transactions whose footprint spans several domains commit with the
	// cross-domain protocol: canonical-order lock acquisition, per-domain
	// claim+publish, post-publish validation of read-only domains, reverse-
	// order release.
	Domains int
}

// The paper's evaluation retries each level five times: fastRetries fast-path
// attempts before the unpartitioned execution is given up (a resource abort
// gives up at once), and subRetries retries, by replay, of an aborted sub-HTM
// transaction before the global transaction aborts.
const (
	fastRetries = 5
	subRetries  = 5
)

// schedule is Part-HTM's retry schedule (exec.Policy has each field's
// rules): the paper's five partitioned attempts before the global lock,
// backoff after a global abort, and the contention manager that keeps an
// abort storm live — a budget of hardware aborts (not begins, so
// many-segment transactions are not penalized) and the slow path for a
// starving transaction. No option changes it; tests pass another to newWith.
var schedule = exec.Policy{
	FastAttempts:       fastRetries,
	StopFastOnResource: true,
	MidAttempts:        5,
	GateMid:            true,
	Backoff:            true,
	MaxBackoff:         100 * time.Microsecond,
	RetryBudget:        24,
	StarveThreshold:    3,
}

// DefaultConfig returns the configuration used in the paper's evaluation,
// the zero Config.
func DefaultConfig() Config { return Config{} }

// System is a Part-HTM (or Part-HTM-O) instance over one simulated memory
// and one HTM engine.
type System struct {
	m   *mem.Memory
	eng *htm.Engine
	cfg Config

	// doms owns the per-domain metadata: each domain's ring and write-locks
	// signature, plus the addr→domain routing. nd caches doms.N(). With
	// nd == 1 every per-domain loop below collapses to a single iteration
	// over domain 0 and the protocol is byte-for-byte the pre-domain one.
	doms *domain.Domains
	nd   int

	glock    mem.Addr // global lock word (own line)
	activeTx mem.Addr // count of partitioned-path transactions (own line)

	// opCycles is what the budget countdown charges one live access: at
	// least the cycles it can add, and never 0, so an access counts on an
	// engine that charges nothing for it (checkBudgets).
	opCycles int64

	// shadowBase maps a data address a to its lock cell shadowBase+a
	// (Part-HTM-O only), the paper's address-embedded lock behind one level
	// of indirection. A cell holds 0 or the thread.tag of the attempt that
	// last locked it. owners holds one owner entry per thread, a line each:
	// the tag of the thread's running partitioned attempt, 0 between
	// attempts. A cell is held only while it equals its owner's entry
	// (held), so one store to the entry releases every cell of an attempt.
	shadowBase mem.Addr
	owners     mem.Addr

	threads []*thread
	stats   tm.Stats

	// run is the shared execution kernel: it owns the retry schedule, the
	// contention manager (budget, starvation), the lemming wait and all
	// commit/abort stats recording.
	run *exec.Runner
}

// New creates a Part-HTM system for up to maxThreads concurrent threads,
// at most htm.MaxSlots (it panics above). The engine's memory must have been
// created with room for the metadata (ring, signatures) and — for
// Part-HTM-O — a ReserveTop'd shadow region is carved automatically.
func New(eng *htm.Engine, maxThreads int, cfg Config) *System {
	return newWith(eng, maxThreads, cfg, schedule)
}

// newWith is New under retry schedule pol in place of the package's.
func newWith(eng *htm.Engine, maxThreads int, cfg Config, pol exec.Policy) *System {
	if maxThreads > htm.MaxSlots {
		panic(fmt.Sprintf("core: %d threads, more than the engine's %d hardware contexts", maxThreads, htm.MaxSlots))
	}
	m := eng.Memory()
	s := &System{
		m:   m,
		eng: eng,
		cfg: cfg,
	}
	// Metadata layout: the domain set first (each domain's ring then its
	// write-locks signature, ascending domain order), then the global lock
	// and active counter. At Domains<=1 the total metadata words equal the
	// pre-domain layout's, so every data address — and with it every
	// signature hash — is unchanged.
	s.doms = domain.New(m, domain.Config{N: cfg.Domains, RingSize: RingSize})
	s.nd = s.doms.N()
	s.glock = m.AllocLines(1)
	s.activeTx = m.AllocLines(1)
	ecfg := eng.Config()
	s.opCycles = max(1, 2*(ecfg.ReadCost+ecfg.WriteCost))
	if cfg.Opaque {
		// Shadow the entire allocatable range with lock cells.
		words := m.Words()
		s.shadowBase = m.ReserveTop(words / 2)
		if int(s.shadowBase) < words/2-mem.LineWords {
			// ReserveTop returned less than half: allocations already
			// consumed space; the shadow still covers [0, shadowBase).
			panic("core: opaque shadow region unexpectedly small")
		}
		// Below the shadow, so no data address and no cell moves.
		s.owners = m.ReserveTop(maxThreads * mem.LineWords)
	}
	// The gate is HTM-GL's: advisory, since every attempt re-reads the lock
	// under a monitor, and the lock word is only ever written
	// non-transactionally, so a raw load.
	s.run = exec.New(pol, &s.stats, func() bool { return m.RawLoad(s.glock) == 0 })
	s.threads = make([]*thread, maxThreads)
	for i := range s.threads {
		t := newThread(i)
		t.sh = s.stats.Shard(i)
		t.et = s.run.Thread(i)
		t.ds = domain.NewTxnState(s.nd, t.sh)
		t.fast = opaqueFastTx{fastTx{s: s, t: t, ds: t.ds, multi: s.nd > 1}}
		t.fastX = &t.fast.fastTx
		if cfg.Opaque {
			t.fastX = &t.fast
		}
		t.seg, t.slow = segTx{s: s, t: t}, slowTx{s: s, t: t}
		t.xtxn = exec.Txn{
			// Kernel dispatch: each level runs whatever body the caller handed
			// Atomic; an oversized one capacity-aborts into the
			// partitioned/slow paths by design.
			Fast: func() htm.Result { return s.fastAttempt(t, t.body) },
			Mid:  func() bool { return s.partitionedAttempt(t, t.body) },
			Slow: func() { s.slowAttempt(t, t.body) },
		}
		if s.nd > 1 {
			// The kernel reads no count as one domain.
			t.xtxn.Domains = t.ds.Count
		}
		s.threads[i] = t
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string {
	switch {
	case s.cfg.Opaque:
		return "Part-HTM-O"
	case s.cfg.NoFastPath:
		return "Part-HTM-no-fast"
	default:
		return "Part-HTM"
	}
}

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor and profiler (see exec.Runner). With a trace sink attached Part-HTM records, beyond the
// kernel's lifecycle events, its protocol events: sub-HTM begin/commit,
// write-lock publication/release, and ring publication.
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// Engine returns the underlying HTM engine (for abort-breakdown reporting,
// Table 1).
func (s *System) Engine() *htm.Engine { return s.eng }

// Domains returns the number of memory domains (1 on the single-domain
// topology).
func (s *System) Domains() int { return s.nd }

// DomainSet exposes the domain set — workloads use it to route allocations
// into specific domains (domain.AllocLinesIn) and observability code to
// inspect per-domain metadata. Setup-time allocation only; see the domain
// package for concurrency rules.
func (s *System) DomainSet() *domain.Domains { return s.doms }

// cell returns the lock-cell address of data address a (Part-HTM-O).
func (s *System) cell(a mem.Addr) mem.Addr { return s.shadowBase + a }

// A Part-HTM-O tag is epoch<<tagEpochShift | (id+1)<<1 | 1: the lock bit, the
// owner's thread id plus one in tagOwnerBits bits, and an epoch that every
// partitioned attempt advances, so a tag never repeats.
const (
	tagOwnerBits  = 5
	tagOwnerMask  = 1<<tagOwnerBits - 1
	tagEpochShift = 1 + tagOwnerBits
)

// Every hardware context's id+1 fits the owner field.
const _ uint = tagOwnerMask - (htm.MaxSlots + 1)

// ownerEntry returns the address of thread id's owner entry (Part-HTM-O).
func (s *System) ownerEntry(id int) mem.Addr { return s.owners + mem.Addr(id*mem.LineWords) }

// held reports whether a lock cell holding c is held by another attempt than
// t's: its lock bit is set, it is not t's tag, and its owner's entry still
// holds it. The entry is read raw. Only its owner writes it, and only
// non-transactionally; a tag leaves its entry once and never returns. So a
// read that is stale by the time it is used can only report a released cell
// as held, and an abort is safe. A cell locked after the caller read it
// dooms the caller through the cell's monitor, as before.
func (s *System) held(t *thread, c uint64) bool {
	return c&1 != 0 && c != t.tag && s.m.RawLoad(s.ownerEntry(int(c>>1&tagOwnerMask)-1)) == c
}

// SegLimit describes one thread's learned adaptive segment budgets
// (0 = unlimited), in the units of htm.Txn.Footprint.
type SegLimit struct {
	Cycles                int64
	ReadLines, WriteLines int
}

// SegLimits reports the segment budgets each thread's next transaction
// starts from; exposed for observability and tests.
func (s *System) SegLimits() []SegLimit {
	out := make([]SegLimit, len(s.threads))
	for i, t := range s.threads {
		b := &t.bud.base
		out[i] = SegLimit{Cycles: b[dimCycles], ReadLines: int(b[dimReadLines]), WriteLines: int(b[dimWriteLines])}
	}
	return out
}

// opKind tags operation-log records.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opPause
)

type opRec struct {
	kind opKind
	addr mem.Addr
	val  uint64
}

type undoRec struct {
	addr mem.Addr
	old  uint64
}

// thread is the per-thread scratch state; buffers are reused across
// transactions to avoid allocation churn.
type thread struct {
	id int

	// ds is the per-domain transactional footprint: read/write/aggregate
	// signatures, validation start times, and the touched/written domain
	// masks. With one domain it degenerates to exactly the pre-domain
	// per-thread signatures (domain 0 permanently touched).
	ds *domain.TxnState

	ht *htm.Txn // open fast-path or sub-HTM transaction

	// checkCells says that the open Part-HTM-O hardware transaction, a fast
	// attempt or a sub-HTM segment, reads each location's lock cell before the
	// location (Figure 2 lines 3-4 and 25-26). mustCheckCells clears it only
	// when the transaction read activeTx in hardware at begin and saw its own
	// count alone: 0 on the fast path, 1 in a segment, whose partitioned
	// transaction counts itself. That proves no other transaction holds a
	// cell: a cell is locked only by a partitioned transaction that has
	// already incremented activeTx (partitionedAttempt's first step), and each
	// one it locked is unlocked before it decrements (releaseLocks precedes
	// decActive). The read is monitored, so the next partitioned begin dooms
	// the transaction before any foreign cell can be locked, and htm's Read
	// notices a doom that precedes its load. Writes in a segment still lock
	// their cells.
	checkCells bool

	// undo holds the old value of every live write, oldest first; the live
	// segment's records get theirs at its sub-commit (fillUndo).
	undo      []undoRec
	opLog     []opRec
	replayPos int

	// segment marks: state is truncated back to these when the live
	// segment aborts, so only committed segments' effects survive.
	undoMark int
	logMark  int

	// Part-HTM-O: the attempt's tag, which a cell it locks holds. A cell
	// holding the tag is ours, so the self-lock test reads the cell alone.
	tag uint64

	// Adaptive partitioning: the budgets at which a partition point is
	// auto-activated, compared with what the open sub-HTM transaction
	// reports it holds.
	bud segBudgets

	// Self-tuning fast path: consecutive transactions whose fast attempts
	// died for resources (a timer abort counts as a whole streak), and a
	// transaction counter for periodic re-probes.
	fastFailStreak int
	txCount        uint64

	// budLeft is what the open segment's operations may still charge, in
	// cycles, before one of them could reach a budget (checkBudgets). It is
	// zeroed whenever ht is, so a positive count means a segment is open.
	budLeft int64

	// Kernel plumbing: this thread's stats shard, its exec-kernel state,
	// its reusable level descriptor (the closures capture the thread, the
	// body of the current transaction arrives via t.body), and the body
	// slot itself.
	sh   *tm.Shard
	et   *exec.Thread
	xtxn exec.Txn
	body func(tm.Tx)

	// The tm.Tx handles the body gets, one per path, built once. fastX is
	// the fast path's: &fast.fastTx for Part-HTM, &fast for Part-HTM-O.
	fast  opaqueFastTx
	fastX tm.Tx
	seg   segTx
	slow  slowTx

	// Whole-attempt footprint (accumulated per committed sub-HTM
	// transaction): used to detect that a partitioned transaction would
	// actually have fit in hardware, so a mixed workload's small
	// transactions return to the fast path quickly.
	attemptSegs   int
	attemptCycles int64
	attemptWLines int
}

func newThread(id int) *thread {
	return &thread{
		id:  id,
		tag: uint64(id+1)<<1 | 1,
		bud: segBudgets{probeEvery: probeEveryMin},
	}
}

// resetPartitioned prepares a fresh partitioned attempt. The caller must
// follow it with doms.SnapshotTimestamps(t.ds.Start) — the validation
// start times are part of the attempt's state but live in the domain set.
func (t *thread) resetPartitioned() {
	t.ds.Reset()
	t.undo = t.undo[:0]
	t.opLog = t.opLog[:0]
	t.replayPos = 0
	t.undoMark = 0
	t.logMark = 0
	t.ht, t.budLeft = nil, 0
	t.attemptSegs = 0
	t.attemptCycles = 0
	t.attemptWLines = 0
}

// truncateSegment discards the live segment's uncommitted effects after a
// sub-HTM abort: its undo records (the writes were never published) and its
// log suffix. Part-HTM-O's tag writes were buffered in the aborted hardware
// transaction, so no cell holds them.
//
// In Part-HTM-O the write signature accumulates across the whole global
// transaction (it is what gets published to the ring), so bits from the
// aborted segment are kept: they are merely conservative. In Part-HTM the
// write signature is per-segment and is cleared.
func (s *System) truncateSegment(t *thread) {
	t.undo = t.undo[:t.undoMark]
	t.opLog = t.opLog[:t.logMark]
	if !s.cfg.Opaque {
		// Per-segment write signatures: drop the aborted segment's bits in
		// every touched domain (bits of committed segments were already
		// folded into the aggregates). The written-domain mask is kept, as
		// the pre-domain code kept its `wrote` flag.
		for m := t.ds.Touched; m != 0; m &= m - 1 {
			t.ds.Write[bits.TrailingZeros64(m)].Clear()
		}
	}
}

// markSegment records that everything logged so far belongs to committed
// sub-HTM transactions.
func (t *thread) markSegment() {
	t.undoMark = len(t.undo)
	t.logMark = len(t.opLog)
}

// Control-flow sentinels for the partitioned path.
type globalAbortPanic struct{}

// outcome of one body execution attempt on the partitioned path.
type outcome uint8

const (
	outDone outcome = iota
	outRetrySeg
	outAbortGlobal
)

// Atomic implements tm.System: fast path, then partitioned path, then slow
// path, with the retry policy of the paper's evaluation (5 attempts per
// level; resource aborts skip straight to partitioning) hardened by the
// contention manager: a per-transaction hardware-abort budget and the slow
// path for starving transactions. All of that schedule lives in the exec
// kernel; this method only decides whether the self-tuned fast path applies
// to this transaction and hands the level closures over.
func (s *System) Atomic(threadID int, body func(tm.Tx)) {
	t := s.threads[threadID]
	t.body = body
	t.txCount++
	// Skip the doomed fast attempt when this thread's transactions keep
	// exceeding the hardware budget, re-probing every 32nd transaction.
	t.xtxn.SkipFast = s.cfg.NoFastPath || (t.fastFailStreak >= fastSkipStreak && t.txCount%32 != 0)
	s.run.Run(threadID, &t.xtxn)
	t.body = nil
}

// fastSkipStreak is how many transactions in a row must lose their fast
// attempt to the cache before Atomic skips the fast path. A timer abort
// counts as all of them: it has burned a whole quantum, the most any fast
// attempt can waste, where a capacity abort may come early.
const fastSkipStreak = 3

// serialSampleCap bounds one ring-publish serial-time sample. A publish is a
// bounded pipeline wait plus a fixed store sequence (one ring entry), so a
// genuine sample is microseconds; samples beyond the cap are a descheduled
// publisher wall-clocking the host scheduler, not the protocol.
const serialSampleCap = 10 * time.Microsecond

// ---------------------------------------------------------------------------
// Fast path (Figure 1 lines 1–15; Figure 2 lines 1–13 when opaque)

func (s *System) fastAttempt(t *thread, body func(tm.Tx)) (res htm.Result) {
	defer func() {
		r := recover()
		if ar, ok := htm.AsAbort(r); ok {
			res = ar
			// Self-tuning: Atomic skips a fast path that keeps dying for
			// resources, at once after the timer. An injected timer abort
			// chose its moment, so it counts as a capacity abort does.
			switch {
			case ar.Reason == htm.Other && !ar.Injected:
				t.fastFailStreak = fastSkipStreak
			case ar.Reason == htm.Capacity || ar.Reason == htm.Other:
				t.fastFailStreak++
			}
		} else if r != nil {
			// Workload panic: tear the open hardware transaction down and
			// re-raise.
			if t.ht != nil {
				t.ht.Cancel()
			}
			t.ht = nil
			panic(r)
		}
		t.ht = nil
	}()
	alone := s.peekAlone(0)
	ht := s.eng.Begin(t.id)
	t.ht = ht
	ds := t.ds
	ds.Reset()
	// No fast attempt adds to a write signature, and Part-HTM's keeps a read
	// signature only if a partitioned transaction ran when it began:
	// fastSignatures builds what a commit needs from what ht holds.
	ds.Clean = alone || s.cfg.Opaque
	if ht.Read(s.glock) != 0 {
		ht.Abort(codeGLock) // the lock line stays monitored: later acquisition dooms us
	}
	t.checkCells = s.mustCheckCells(ht, alone, 0)
	t.fast.ht = ht
	t.fast.plain = !t.fast.multi && ds.Clean && !t.checkCells
	body(t.fastX)
	// publish says whether a partitioned transaction may validate against this
	// commit, so that its write signature must go to the ring. Figure 1
	// publishes unconditionally, but an attempt that saw activeTx == 0 after
	// its last access has no reader: a partitioned transaction increments
	// activeTx before it snapshots the timestamps it validates from, so one
	// that begins before that read is seen by it, and one that begins after
	// reads each line the attempt wrote either before the commit, dooming it,
	// or after, seeing its values. An unchecked Part-HTM-O attempt holds that
	// read monitored since begin; Part-HTM makes it below.
	publish := t.checkCells
	if !s.cfg.Opaque {
		// Commit-time validation: no read from or write over a non-visible
		// (locked) location (Figure 1 lines 7-8), per touched domain in
		// canonical (ascending) order. Each domain's signature is fetched
		// at cache-line granularity — four monitored line reads.
		//
		// The count of partitioned-path transactions summarises every
		// domain's signature, so one read of it usually stands in for all of
		// those. A lock bit is only ever set by a transaction that has already
		// incremented activeTx (partitionedAttempt's first step) and is
		// cleared before that transaction decrements it (globalCommit and
		// globalAbort release, then decActive): activeTx == 0 means every
		// write-locks signature is empty now. The read is a raw load, because
		// it is the attempt's last access: a lock bit set before it is counted
		// in it, and one set after it on a location the attempt accessed is
		// a sub-HTM write to that location, which dooms the attempt (requester
		// wins) or waits for its commit. A nonzero count proves nothing
		// either way (a partitioned transaction may hold no lock yet), so the
		// signatures are then read as before.
		publish = s.m.RawLoad(s.activeTx) != 0
		if publish {
			s.fastSignatures(t, ht)
		}
		for m := ds.Touched; m != 0; m &= m - 1 {
			if !publish {
				// Fault campaigns draw here once per domain either way.
				ht.InjectionPoint(fault.SiteLockSigRead)
				continue
			}
			d := bits.TrailingZeros64(m)
			var wl [sig.Words]uint64 // declared here: zeroing it costs an idle commit
			s.readWriteLocks(ht, d, &wl)
			if ds.Write[d].IntersectsWords(wl[:]) || ds.Read[d].IntersectsWords(wl[:]) {
				ht.Abort(codeLockHit)
			}
		}
	}
	// Opaque mode checked locks at encounter time and keeps every touched
	// lock cell monitored, or holds activeTx == 0 monitored, so no commit
	// validation is needed (Figure 2).
	if ds.Wrote == 0 {
		publish = false
	} else {
		// Fault campaigns draw here whether or not the commit publishes.
		ht.InjectionPoint(fault.SiteRingPub)
	}
	if publish {
		if s.cfg.Opaque {
			s.fastSignatures(t, ht)
		}
		// Publish to every written domain's ring inside the hardware
		// window, ascending; the hardware commit makes all the entries (and
		// all the timestamp increments) visible atomically, so a fast-path
		// cross-domain commit needs no ordering protocol at all.
		for m := ds.Wrote; m != 0; m &= m - 1 {
			d := bits.TrailingZeros64(m)
			r := s.doms.Ring(d)
			r.PublishHTM(ht, ht.Add(r.TimestampAddr(), 1), &ds.Write[d])
		}
	}
	ht.Commit()
	if publish {
		// The ring entries became visible with the hardware commit; record
		// now that the window is closed.
		t.et.TraceEvent(trace.EvRingPub, 0)
	}
	t.fastFailStreak = 0
	return htm.Result{Committed: true}
}

// fastSignatures builds a fast attempt's signatures at commit, for a commit
// that checks the write-locks signatures or publishes to a ring, from what
// its hardware transaction holds. It must run before the timestamp Add. The
// write signature is the words ht buffered, which are exactly the words
// tx.Write wrote. A Part-HTM attempt that began alone (ds.Clean) kept no
// read signature, so it gets every word of every line ht monitors, read
// lines and write lines both, whichever set the engine keeps a line in that
// the attempt read after writing to it. That is a superset of what it read,
// and the case is rare: a partitioned transaction began during the attempt.
func (s *System) fastSignatures(t *thread, ht *htm.Txn) {
	ds := t.ds
	var line func(mem.Line)
	if ds.Clean && !s.cfg.Opaque {
		line = func(l mem.Line) {
			base := mem.Addr(l) * mem.LineWords
			d := s.doms.Of(base)
			if ds.Touched&(1<<uint(d)) == 0 {
				return // no commit check reads an untouched domain's signature
			}
			for i := mem.Addr(0); i < mem.LineWords; i++ {
				ds.Read[d].Add(uint32(base + i))
			}
		}
	}
	ds.Clean = false
	ht.Held(func(a mem.Addr) { ds.Write[s.doms.Of(a)].Add(uint32(a)) }, line)
}

// ---------------------------------------------------------------------------
// Partitioned path (Figure 1 lines 16–60; Figure 2 lines 14–67 when opaque)

// partitionedAttempt runs one global-transaction attempt on the partitioned
// path, reporting whether it committed. On failure the caller backs off and
// retries (or escalates to the slow path).
func (s *System) partitionedAttempt(t *thread, body func(tm.Tx)) bool {
	// Begin (lines 16-19): handshake with the slow path. The caller already
	// waited for the global lock; the re-check after the active announcement
	// closes the race with a slow transaction acquiring it in between.
	s.m.Add(s.activeTx, 1)
	if s.m.Load(s.glock) != 0 {
		// Reset the footprint masks so the kernel does not attribute this
		// non-attempt to the previous attempt's domain set.
		t.ds.Reset()
		s.decActive()
		return false
	}
	if s.cfg.Opaque {
		// A fresh tag, published before the body can lock a cell with it.
		t.tag += 1 << tagEpochShift
		s.m.Store(s.ownerEntry(t.id), t.tag)
	}
	t.resetPartitioned()
	t.bud.beginTxn(t.txCount)
	s.doms.SnapshotTimestamps(t.ds.Start)

	subAttempts := 0
	for {
		out := s.tryRunBody(t, body)
		if out == outDone {
			break
		}
		if out == outAbortGlobal {
			s.globalAbort(t)
			return false
		}
		// Retry the aborted segment by replaying the committed prefix.
		subAttempts++
		if subAttempts > subRetries {
			s.globalAbort(t)
			return false
		}
		t.replayPos = 0
	}

	if !s.globalCommit(t) {
		s.globalAbort(t)
		return false
	}
	t.bud.txnCommitted()
	if t.attemptSegs <= 1 {
		// The whole transaction fit one modest sub-HTM transaction: it
		// would very likely commit on the fast path too, so resume probing
		// it immediately (mixed short/long workloads, Table 1).
		ecfg := s.eng.Config()
		if (ecfg.Quantum == 0 || t.attemptCycles < ecfg.Quantum/4) &&
			(ecfg.WriteLines == 0 || t.attemptWLines < ecfg.WriteLines/4) {
			t.fastFailStreak = 0
		}
	}
	return true
}

// tryRunBody executes the body once: replaying the committed prefix, going
// live at the first un-replayed operation, and committing the final open
// sub-HTM transaction at the end.
func (s *System) tryRunBody(t *thread, body func(tm.Tx)) (out outcome) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if res, ok := htm.AsAbort(r); ok {
			// The open sub-HTM transaction aborted; htm already tore it
			// down, and still knows what it held when it failed. An abort
			// the fault injector forced teaches no budget: it chose its
			// reason without looking at the footprint.
			if !res.Injected {
				commitLines := int64(0)
				if !s.cfg.Opaque {
					// The sub-commit reads, and may write, every touched
					// domain's signature lines on top of what the body holds.
					commitLines = int64(sig.Lines * t.ds.Count())
				}
				t.bud.failed(res.Reason, footprintOf(t.ht), commitLines)
			}
			t.ht, t.budLeft = nil, 0
			t.et.NoteHWAbort(res)
			s.truncateSegment(t)
			switch {
			case res.Reason == htm.Explicit && res.Code == codeLockConflict:
				// Conflict on a global write lock propagates to the global
				// transaction (paper §5.3.5).
				out = outAbortGlobal
			case res.Reason == htm.Capacity || res.Reason == htm.Other:
				// Resource failure of one segment: the budgets learned
				// above make the retry partition more aggressively.
				out = outRetrySeg
			case res.Reason == htm.Explicit && res.Code == codeTsChanged:
				// Part-HTM-O timestamp subscription (Figure 2 lines 36-39):
				// validate; if still consistent, only the sub-transaction
				// restarts.
				if s.inFlightValidate(t) {
					out = outRetrySeg
				} else {
					out = outAbortGlobal
				}
			default:
				out = outRetrySeg
			}
			return
		}
		if t.ht != nil {
			t.ht.Cancel()
			t.ht, t.budLeft = nil, 0
		}
		s.truncateSegment(t)
		if _, ok := r.(globalAbortPanic); ok {
			out = outAbortGlobal
			return
		}
		// A workload panic: leave the partitioned path as a global abort
		// does, and re-raise.
		s.globalAbort(t)
		panic(r)
	}()

	t.seg.replay = len(t.opLog) > 0
	body(&t.seg)
	s.subCommitIfOpen(t)
	return outDone
}

// Segment budgets. A resource dimension of a sub-HTM transaction is one of
// the three numbers htm.Txn.Footprint reports; a budget of 0 is unlimited.
const (
	dimCycles = iota
	dimReadLines
	dimWriteLines
	nDims
)

// Which dimensions an abort reason can be about: the timer knows cycles,
// the cache knows lines.
const (
	timeDims     = 1 << dimCycles
	capacityDims = 1<<dimReadLines | 1<<dimWriteLines
)

// footprint is what a sub-HTM transaction consumed, or a budget on that, per
// dimension.
type footprint [nDims]int64

func footprintOf(ht *htm.Txn) footprint {
	c, r, w := ht.Footprint()
	return footprint{dimCycles: c, dimReadLines: int64(r), dimWriteLines: int64(w)}
}

// budgetFloor keeps a budget from shrinking to nothing: below it a segment
// is retried as it is.
var budgetFloor = footprint{dimCycles: 64, dimReadLines: 16, dimWriteLines: 2}

// A probe raises a budget by 1/probeDiv of itself, after probeEveryMin clean
// commits; each failed probe doubles that wait, up to probeEveryMax.
const (
	probeDiv      = 8
	probeEveryMin = 4
	probeEveryMax = 1 << 10
)

func probeStep(v int64) int64 { return max(1, v/probeDiv) }

// segBudgets is one thread's knowledge of what fits in a sub-HTM transaction.
// It keeps three facts per dimension and moves them by these rules:
//
//   - A resource abort makes the retry strictly smaller: lim drops to half
//     the failed footprint and stays there until the transaction ends. That
//     is the progress rule; it never outlives the transaction.
//   - A failure above everything that has ever committed sets base just
//     under the failed footprint, in one step: that footprint is the bound.
//   - A failure at or below what has committed is placement (which cache set
//     the lines fell in), not size. base ignores it, unless the transaction
//     before also failed: then it steps down by one probe step. A failure
//     above fit that base was already under is treated the same way.
//   - A dimension in which the failed segment stayed within what has
//     committed is not blamed while another exceeded it, and one it did not
//     use at all is never blamed.
//   - base grows only by a probe: one step, never more than one step past
//     fit, after probeEvery clean commits. A resource abort while the probe
//     is unconfirmed takes it back and doubles probeEvery.
type segBudgets struct {
	fit  footprint // the largest a sub-HTM transaction has committed with
	base footprint // what a fresh transaction starts from
	lim  footprint // what the running transaction partitions at

	txn               uint64 // the transaction lim and failedNow belong to
	failedNow         bool   // it has had a resource abort
	failedPrev        bool   // so had the one before
	clean, probeEvery int    // clean commits since the last probe or failure, of how many
	probing           bool   // base holds a probe step no commit has confirmed yet
	preProbe          footprint
}

// beginTxn starts transaction id from the persistent budgets; further
// attempts of the same transaction keep what its failures taught.
func (b *segBudgets) beginTxn(id uint64) {
	if b.txn == id {
		return
	}
	b.txn = id
	b.failedPrev, b.failedNow = b.failedNow, false
	b.lim = b.base
}

// committed notes that a sub-HTM transaction committed holding f.
func (b *segBudgets) committed(f footprint) {
	for d, v := range f {
		if v > b.fit[d] {
			b.fit[d] = v
		}
	}
}

// failed learns from a sub-HTM transaction that aborted for resources
// holding f. commitLines is what the sub-commit adds to both line counts on
// top of the body's.
func (b *segBudgets) failed(reason htm.AbortReason, f footprint, commitLines int64) {
	var dims uint
	switch reason {
	case htm.Capacity:
		dims = capacityDims
	case htm.Other:
		dims = timeDims
	default:
		return
	}
	if b.probing {
		b.base, b.probing = b.preProbe, false
		b.probeEvery = min(2*b.probeEvery, probeEveryMax)
	}
	b.clean = 0
	recurs := b.failedPrev && !b.failedNow
	b.failedNow = true

	// Blame the dimensions in which f exceeds everything that has committed;
	// if there is none it is placement, which every dimension f used shares.
	var above, blamed uint
	for d := 0; d < nDims; d++ {
		if dims&(1<<d) != 0 && f[d] > 0 {
			blamed |= 1 << d
			if f[d] > b.fit[d] {
				above |= 1 << d
			}
		}
	}
	if above != 0 {
		blamed = above
	}
	converged := false
	for d := 0; d < nDims; d++ {
		if blamed&(1<<d) == 0 {
			continue
		}
		if n := max(f[d]/2, budgetFloor[d]); b.lim[d] == 0 || n < b.lim[d] {
			b.lim[d] = n
		}
		if above == 0 {
			continue
		}
		n := f[d] - 1
		if d != dimCycles {
			n -= commitLines
		}
		if n = max(n, budgetFloor[d]); b.base[d] == 0 || n < b.base[d] {
			b.base[d] = n
			converged = true
		}
	}
	if converged || !recurs {
		return
	}
	for d := 0; d < nDims; d++ {
		if blamed&(1<<d) != 0 {
			top := b.base[d]
			if top == 0 {
				top = b.fit[d]
			}
			b.base[d] = max(top-probeStep(top), budgetFloor[d])
		}
	}
}

// txnCommitted counts a partitioned commit and, every probeEvery clean
// ones, probes: each known budget one step up, and never more than one step
// past what has committed.
func (b *segBudgets) txnCommitted() {
	if b.failedNow {
		return
	}
	if b.probing {
		b.probing = false
		b.probeEvery = probeEveryMin
	}
	if b.clean++; b.clean < b.probeEvery {
		return
	}
	b.clean = 0
	b.preProbe = b.base
	for d, v := range b.base {
		if v == 0 {
			continue
		}
		n := min(v+probeStep(v), b.fit[d]+probeStep(b.fit[d]))
		if n > v {
			b.probing = true
		}
		b.base[d] = n
	}
}

// underHalf reports whether f uses less than half of every budget the
// running transaction knows, and it knows one.
func (b *segBudgets) underHalf(f footprint) bool {
	known := false
	for d, lim := range b.lim {
		if lim == 0 {
			continue
		}
		if 2*f[d] >= lim {
			return false
		}
		known = true
	}
	return known
}

// liveSub returns the sub-HTM transaction a live operation that may charge
// it up to cost cycles runs in: the open one, unless that has reached a
// budget along any resource dimension (then the partition point is
// auto-activated and a new one opens), or a new one if none is open. Every
// live access comes through here, and most only count down what
// checkBudgets proved cannot reach a budget.
func (s *System) liveSub(t *thread, cost int64) *htm.Txn {
	if t.budLeft > 0 {
		t.budLeft -= cost
		return t.ht
	}
	return s.checkBudgets(t, cost)
}

// checkBudgets is liveSub's full check. Unless it pauses, it sets t.budLeft
// to what the operations from this one on may be charged before one of them
// could reach a budget: one live access adds at most two lines to each
// dimension (Part-HTM-O's cell and word) and at most s.opCycles cycles, and
// is charged s.opCycles; Work(c) adds c cycles and no line, and is charged c.
// So a check that liveSub skips could not have fired, and every auto-pause
// falls on the access where a check at every access puts it. lim changes
// only while no segment is open (a resource abort, a new attempt), and a
// segment opens with the count at 0, so its first check is a full one.
func (s *System) checkBudgets(t *thread, cost int64) *htm.Txn {
	if t.ht == nil {
		return s.openSub(t)
	}
	f := footprintOf(t.ht)
	n := int64(1) << 62
	for d, lim := range t.bud.lim {
		if lim == 0 {
			continue
		}
		if f[d] >= lim {
			s.pauseSegment(t)
			return s.openSub(t)
		}
		room := lim - f[d] - 1
		if d != dimCycles {
			room = room / 2 * s.opCycles
		}
		n = min(n, room)
	}
	t.budLeft = n + 1 - cost
	return t.ht
}

// pauseSegment is a partition point on the live path, the workload's or an
// auto-activated one: commit the open sub-HTM transaction and log the pause.
func (s *System) pauseSegment(t *thread) {
	s.subCommitIfOpen(t)
	t.opLog = append(t.opLog, opRec{kind: opPause})
	t.markSegment()
}

// openSub opens the next sub-HTM transaction.
func (s *System) openSub(t *thread) *htm.Txn {
	t.et.TraceEvent(trace.EvSubBegin, 0) // before Begin: outside the window
	alone := s.cfg.Opaque && s.peekAlone(1)
	ht := s.eng.Begin(t.id)
	ht.SetProfileClass(prof.ClassSub) // footprints split fast vs sub-HTM
	t.ht = ht
	if s.cfg.Opaque {
		// Timestamp subscription (Figure 2 lines 23-24), per touched
		// domain: the monitored reads make any commit in a touched domain
		// doom this sub-transaction, and a stale start forces validation
		// before any memory is touched. Domains first touched later in this
		// segment subscribe at the touch (segTx.live).
		for m := t.ds.Touched; m != 0; m &= m - 1 {
			d := bits.TrailingZeros64(m)
			if ht.Read(s.doms.Ring(d).TimestampAddr()) != t.ds.Start[d] {
				ht.Abort(codeTsChanged)
			}
		}
	}
	t.checkCells = s.mustCheckCells(ht, alone, 1)
	return ht
}

// peekAlone loads activeTx before a hardware transaction begins and
// reports whether it counts only the caller's own partitioned transactions.
// It is advisory. A Part-HTM fast attempt that peeks alone keeps no read
// signature, and its commit re-reads the count. Part-HTM-O re-reads it under
// a monitor (mustCheckCells) to skip its lock cells (see checkCells); a peek
// that sees others keeps activeTx out of the read set, so checked
// transactions are not doomed by partitioned begins and ends they do not
// conflict with. activeTx is only ever written non-transactionally, so a
// load that took the line lock and told the engine would doom no one: it is
// a raw load.
func (s *System) peekAlone(own uint64) bool {
	return s.m.RawLoad(s.activeTx) == own
}

// mustCheckCells is checkCells for ht, begun after a peekAlone(own) that
// returned alone; only then does ht read activeTx, monitored.
func (s *System) mustCheckCells(ht *htm.Txn, alone bool, own uint64) bool {
	return s.cfg.Opaque && !(alone && ht.Read(s.activeTx) == own)
}

// subCommitIfOpen commits the currently open sub-HTM transaction, if any,
// with the paper's pre-commit validation and lock publication, then runs
// the in-flight validation.
func (s *System) subCommitIfOpen(t *thread) {
	ht := t.ht
	if ht == nil {
		return
	}
	ds := t.ds
	if !s.cfg.Opaque {
		// Pre-commit validation (Figure 1 lines 26-28), per touched domain
		// in canonical (ascending) order: exclude our own locks, then check
		// reads and writes against others' locks in that domain.
		var wl [sig.Words]uint64
		for m := ds.Touched; m != 0; m &= m - 1 {
			d := bits.TrailingZeros64(m)
			s.readWriteLocks(ht, d, &wl)
			for i, w := range wl {
				others := w &^ ds.Agg[d][i] // others_locks = write_locks - agg_write_sig
				if others&(ds.Write[d][i]|ds.Read[d][i]) != 0 {
					ht.Abort(codeLockConflict)
				}
			}
			if ds.Wrote&(1<<uint(d)) != 0 {
				s.publishWriteLocks(ht, d, &wl, &ds.Write[d])
			}
		}
	}
	if s.cfg.Opaque {
		s.checkWrittenCells(t, ht)
	}
	s.fillUndo(t, ht)
	ht.Commit()
	t.ht, t.budLeft = nil, 0
	t.et.TraceEvent(trace.EvSubCommit, 0)
	if ds.Wrote != 0 {
		// The segment's write locks became visible with the commit
		// (signature bits, or the cells written inside the window).
		t.et.TraceEvent(trace.EvLockAcq, 0)
		if s.nd > 1 && ds.Count() > 1 {
			for m := ds.Wrote; m != 0; m &= m - 1 {
				t.et.TraceEvent(trace.EvDomainAcquire, uint64(bits.TrailingZeros64(m)))
			}
		}
	}

	// The segment is committed the instant the hardware commit succeeds:
	// its writes are in memory and its locks are published. Fold its write
	// signatures into the aggregates and advance the segment marks *before*
	// anything that can trigger a global abort, so that rollback always
	// covers the segment's writes and lock release always covers its locks.
	// Its footprint joins the attempt totals here, once per sub-HTM
	// transaction however the partition point was reached.
	if !s.cfg.Opaque {
		for m := ds.Touched; m != 0; m &= m - 1 {
			d := bits.TrailingZeros64(m)
			ds.Agg[d].Union(&ds.Write[d])
			ds.Write[d].Clear()
		}
	}
	t.markSegment()
	f := footprintOf(ht)
	t.bud.committed(f)
	t.attemptSegs++
	t.attemptCycles += f[dimCycles]
	t.attemptWLines += int(f[dimWriteLines])

	if !s.cfg.Opaque && !s.inFlightValidate(t) {
		panic(globalAbortPanic{})
	}
	// Part-HTM-O needs no post-commit validation: the timestamp
	// subscription aborts any sub-transaction that overlaps a commit, so a
	// committed sub-transaction is already known consistent.
}

// fillUndo reads the old values of the open segment's undo records, in one
// pass just before its hardware commit. segTx.Write took each word's line
// under ht's write monitor and loaded nothing (htm.Txn.Overwrite), and any
// other store to that line, transactional or not, dooms ht before it lands.
// So a word loaded here is still the one the segment's first write to it
// replaced, or ht is doomed and Commit aborts it, and truncateSegment drops
// the records. A word written twice in one segment logs memory's
// pre-segment value twice; rollback, newest first, restores it all the same.
// No locked instruction sits between these loads, so their cache misses
// overlap; a load at each write waited for its miss before the next write
// monitor's CAS could complete.
func (s *System) fillUndo(t *thread, ht *htm.Txn) {
	seg := t.undo[t.undoMark:]
	for i := range seg {
		seg[i].old = ht.HeldWord(seg[i].addr)
	}
}

// checkWrittenCells aborts the open Part-HTM-O segment if another attempt
// holds the lock cell of a word it wrote, in one pass of raw loads just
// before its hardware commit, as fillUndo reads the words. segTx.Write
// buffered the tag under the cell line's write monitor and loaded nothing,
// so the lock becomes visible at Commit alone, wherever the check runs
// before it. A cell another segment locks after our write dooms us through
// that monitor, as a cell locked after a read dooms the reader; one held
// from before our write is seen here, and the segment aborts before any of
// its writes land. A cell holding our own tag is already ours.
func (s *System) checkWrittenCells(t *thread, ht *htm.Txn) {
	for _, r := range t.undo[t.undoMark:] {
		if s.held(t, ht.HeldWord(s.cell(r.addr))) {
			ht.Abort(codeLockConflict) // locked by others
		}
	}
}

// publishWriteLocks announces a segment's new non-visible locations (Figure 1
// line 29): it ORs the segment's write signature w into domain d's shared
// write-locks signature, of which wl is what readWriteLocks just returned,
// with one WriteLine per signature line that changes — the hardware pays for
// the signature by the line, which is why it is four of them.
//
// Writing back the words of a line that w does not change is sound: the line
// has been in ht's read set since readWriteLocks, and a releasing thread's
// non-transactional AndNot dooms a reader (or waits out a committer), so a
// line that commits holds exactly what was read plus w's bits.
func (s *System) publishWriteLocks(ht *htm.Txn, d int, wl *[sig.Words]uint64, w *sig.Signature) {
	wlocks := s.doms.Wlocks(d)
	for i := 0; i < sig.Words; i += mem.LineWords {
		line := (*[mem.LineWords]uint64)(wl[i:])
		changed := false
		for j, b := range w[i : i+mem.LineWords] {
			if line[j]|b != line[j] {
				line[j] |= b
				changed = true
			}
		}
		if changed {
			ht.WriteLine(wlocks+mem.Addr(i), line)
		}
	}
}

// readWriteLocks fetches domain d's shared write-locks signature with four
// monitored line reads (the hardware access granularity).
func (s *System) readWriteLocks(ht *htm.Txn, d int, wl *[sig.Words]uint64) {
	ht.InjectionPoint(fault.SiteLockSigRead)
	wlocks := s.doms.Wlocks(d)
	var line [mem.LineWords]uint64
	for i := 0; i < sig.Lines; i++ {
		ht.ReadLine(wlocks+mem.Addr(i*mem.LineWords), &line)
		copy(wl[i*mem.LineWords:(i+1)*mem.LineWords], line[:])
	}
}

// inFlightValidate checks the memory snapshot observed so far against every
// concurrently committed transaction in every touched domain (Figure 1
// lines 34-41). It returns false when the global transaction must abort.
func (s *System) inFlightValidate(t *thread) bool {
	ok, rollover := s.doms.Validate(t.ds)
	if rollover {
		s.noteRollover(t)
	}
	return ok
}

// noteRollover counts a validation that failed because a domain's ring
// lapped the validator (multi-domain topologies only).
func (s *System) noteRollover(t *thread) {
	if s.nd > 1 {
		t.sh.DomainRingRollovers.Inc()
	}
}

// globalCommit implements Figure 1 lines 42-52 (Figure 2 lines 48-59 for
// Part-HTM-O), with each written domain's timestamp claimed by a
// validate-and-CAS loop so the window between the last validation of that
// domain and its ring insertion is closed.
//
// Cross-domain commits extend the protocol in canonical (ascending) domain
// order: each written domain is claimed and published immediately — nothing
// blocks between the claim and the publication, so validators (who spin on
// unpublished entries) only ever wait backwards within one domain's
// timestamp order and no cross-domain wait cycle can form. After the last
// publication every touched domain is re-validated: for a racing pair of
// cross-domain transactions each validates after it publishes, so at least
// one of them observes the other's entry — the classic OCC argument that
// makes mutual misses (write skew through a read-only domain) impossible.
// Locks are released in reverse (descending) domain order.
func (s *System) globalCommit(t *thread) bool {
	ds := t.ds
	if ds.Wrote == 0 {
		// Per-sub validation (Part-HTM-O: the subscription) already knows
		// the reads consistent.
		s.releaseLocks(t)
		s.decActive()
		return true
	}
	// Software ring-publication faults must fire before any timestamp is
	// claimed: a claimed timestamp is always published (the seqlock on its
	// entry would otherwise wedge every validator of that domain).
	if in := s.eng.Injector(); in != nil {
		if _, _, ok := in.Draw(fault.SiteRingPub, t.id); ok {
			t.sh.FaultsInjected.Inc()
			return false
		}
	}
	cross := ds.Count() > 1
	var lastTS uint64
	for m := ds.Wrote; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		pub := &ds.Agg[d]
		if s.cfg.Opaque {
			pub = &ds.Write[d]
		}
		myts, ok, rollover := s.doms.ClaimTimestamp(d, &ds.Read[d], &ds.Start[d])
		if !ok {
			if rollover {
				s.noteRollover(t)
			}
			// Domains already published stay published: their entries are
			// merely conservative (the writes remain lock-protected until
			// globalAbort rolls them back and releases the locks), costing
			// at worst spurious aborts in validators of those domains.
			return false
		}
		start := time.Now()
		s.doms.Publish(d, myts, pub)
		// Validators of this domain spin on the entry until it is
		// published: that window serializes the domain — 1/N of the
		// topology's commit capacity. Lock release is not serializing — it
		// only delays true conflictors. The per-sample clamp discards
		// scheduler-preemption artifacts: on an oversubscribed host a
		// publisher descheduled mid-window wall-clocks other goroutines'
		// entire time slices, which is not publish-pipeline occupancy.
		el := time.Since(start)
		if el > serialSampleCap {
			el = serialSampleCap
		}
		t.sh.AddSerial(el / time.Duration(s.nd))
		// Our own entry must not fail our later validation of this domain.
		ds.Start[d] = myts
		lastTS = myts
		if cross {
			t.et.TraceEvent(trace.EvDomainPublish, uint64(d))
		}
	}
	// Post-publish validation of every touched domain — the read-only ones
	// in particular, whose consistency no claim re-checked.
	if cross && !s.inFlightValidate(t) {
		return false
	}
	t.et.TraceEvent(trace.EvRingPub, lastTS)
	s.releaseLocks(t)
	s.decActive()
	return true
}

// globalAbort implements Figure 1 lines 53-58: restore old values from the
// undo log (newest first), release the write locks, and leave the
// partitioned path. The caller handles backoff and retry.
func (s *System) globalAbort(t *thread) {
	for i := len(t.undo) - 1; i >= 0; i-- {
		s.m.Store(t.undo[i].addr, t.undo[i].old)
	}
	s.releaseLocks(t)
	s.decActive()
}

// releaseLocks makes this transaction's written locations visible again, at
// global commit and global abort alike. Part-HTM removes its bits from every
// written domain's shared write-locks signature (Figure 1 lines 48-49), one
// atomic AND-NOT per changed word, in reverse (descending) canonical order —
// the mirror of the ascending acquisition order; Part-HTM-O releases every
// cell it acquired (Figure 2 lines 55-56 / 61-62) with one store, which
// clears its owner entry (held).
func (s *System) releaseLocks(t *thread) {
	if s.cfg.Opaque {
		s.m.Store(s.ownerEntry(t.id), 0)
	}
	if t.ds.Wrote == 0 {
		return
	}
	cross := t.ds.Count() > 1
	for m := t.ds.Wrote; m != 0; {
		d := 63 - bits.LeadingZeros64(m)
		if !s.cfg.Opaque {
			s.doms.ReleaseWlocks(d, &t.ds.Agg[d])
		}
		if cross {
			t.et.TraceEvent(trace.EvDomainRelease, uint64(d))
		}
		m &^= 1 << uint(d)
	}
	t.et.TraceEvent(trace.EvLockRel, 0)
}

func (s *System) decActive() {
	s.m.Add(s.activeTx, ^uint64(0)) // -1
}

// ---------------------------------------------------------------------------
// Slow path (Figure 1 lines 61-65)

// slowAttempt runs the body under the global lock once no partitioned
// transaction is active, and releases the lock even when the body panics.
func (s *System) slowAttempt(t *thread, body func(tm.Tx)) {
	for !s.m.CAS(s.glock, 0, 1) {
		runtime.Gosched()
	}
	for s.m.Load(s.activeTx) != 0 {
		runtime.Gosched()
	}
	start := time.Now()
	defer func() {
		s.m.Store(s.glock, 0)
		t.sh.AddSerial(time.Since(start))
	}()
	body(&t.slow)
}

// ---------------------------------------------------------------------------
// The tm.Tx views, one per path, so an access does only what its path needs.
// At one domain, where Touched is always Base, none routes an address.

// fastTx is Part-HTM's fast-path view: HTM-GL's adapter, plus the read
// signature while the attempt keeps one (!ds.Clean) and per-access routing
// at N > 1. The commit hook is the rest of fastAttempt.
type fastTx struct {
	s     *System
	t     *thread
	ht    *htm.Txn // the attempt's hardware transaction
	ds    *domain.TxnState
	multi bool // more than one domain: route every access
	plain bool // set at begin: a read is ht.Read alone (one domain, no signature, no cell check)
}

func (x *fastTx) Thread() int { return x.t.id }
func (x *fastTx) Pause()      {} // a partition point is free on the fast path

func (x *fastTx) Read(a mem.Addr) uint64 {
	if !x.plain {
		// If a partitioned transaction ran at begin, keep the read signature
		// the commit checks.
		if bit := x.touch(a); !x.ds.Clean {
			x.ds.Read[bits.TrailingZeros64(bit)].Add(uint32(a))
		}
	}
	return x.ht.Read(a)
}

func (x *fastTx) Write(a mem.Addr, v uint64) {
	x.ds.Wrote |= x.touch(a)
	x.ht.Write(a, v) // fastSignatures finds a in ht's write buffer
}

// touch returns a's domain as a mask bit and records it touched; at one
// domain, always touched, it returns domain 0's bit and records nothing.
func (x *fastTx) touch(a mem.Addr) uint64 {
	if !x.multi {
		return 1
	}
	bit := uint64(1) << uint(x.s.doms.Of(a))
	x.ds.Touched |= bit
	return bit
}

// WriteLocal stores thread-private data: buffered, so it costs write
// capacity, but with no signature, lock or undo record — the paper's manual
// barriers likewise skip accesses to non-shared objects.
func (x *fastTx) WriteLocal(a mem.Addr, v uint64) { x.ht.WriteLocal(a, v) }

// Work burns real CPU and counts against the hardware timer quantum.
func (x *fastTx) Work(c int64) {
	x.ht.Work(c)
	tm.Spin(c)
}

// NonTxWork is computation the software framework runs outside sub-HTM
// transactions; on the fast path it is inevitably inside one.
func (x *fastTx) NonTxWork(c int64) { x.Work(c) }

// opaqueFastTx is Part-HTM-O's fast-path view: fastTx with an encounter-time
// check of each location's lock cell (Figure 2 lines 3-4) while checkCells;
// the monitored cell read dooms the attempt if the cell is locked later.
type opaqueFastTx struct{ fastTx }

func (x *opaqueFastTx) Read(a mem.Addr) uint64 {
	if !x.plain {
		x.check(a)
	}
	return x.ht.Read(a)
}

func (x *opaqueFastTx) Write(a mem.Addr, v uint64) {
	if !x.plain {
		x.check(a)
	}
	x.fastTx.Write(a, v)
}

// check routes a and, while checkCells, aborts if its cell is held.
func (x *opaqueFastTx) check(a mem.Addr) {
	x.touch(a)
	if x.t.checkCells && x.s.held(x.t, x.ht.Read(x.s.cell(a))) {
		x.ht.Abort(codeLockHit)
	}
}

// segTx is the partitioned path's view. A live access runs in the open
// sub-HTM transaction, after an auto-activated partition point if a budget is
// reached (liveSub). A replayed one is served from the operation log; replay
// goes live mid-body, hence the one switch.
type segTx struct {
	s      *System
	t      *thread
	replay bool // replaying committed segments (tryRunBody sets it)
}

func (x *segTx) Thread() int { return x.t.id }

// live prepares a live access to a: it returns the open sub-HTM transaction
// and a's domain d, recorded in the segment's footprint. The first touch of
// a new domain also takes d's validation start time, read before the access
// that triggered the touch, so validation from it covers every read the
// transaction makes in d; the mask bit is set first so a recovery path
// validates d too. Under opacity the start is read inside the open sub-HTM
// transaction: the timestamp subscription that openSub makes for domains
// known at segment begin. One domain is always touched, its start taken at
// attempt begin and its subscription at segment begin.
func (x *segTx) live(a mem.Addr) (*htm.Txn, int) {
	s, t := x.s, x.t
	ht := s.liveSub(t, s.opCycles)
	if s.nd == 1 {
		return ht, 0
	}
	d := s.doms.Of(a)
	if bit := uint64(1) << uint(d); t.ds.Touched&bit == 0 {
		t.ds.Touched |= bit
		if s.cfg.Opaque {
			// One more read line than checkBudgets allows an access.
			t.ds.Start[d] = ht.Read(s.doms.Ring(d).TimestampAddr())
			t.budLeft = 0
		} else {
			t.ds.Start[d] = s.doms.Ring(d).Timestamp()
		}
	}
	return ht, d
}

// Pause is a partition point: it commits the open sub-HTM transaction.
func (x *segTx) Pause() {
	t := x.t
	if x.replay {
		x.replayExpect(opPause, 0, 0)
	} else if t.ht == nil || !t.bud.underHalf(footprintOf(t.ht)) {
		// "May split": a segment that has used less than half of everything
		// the thread knows to fit runs on, so a learned budget just under the
		// workload's grid does not alternate full segments with slivers.
		x.s.pauseSegment(t)
	}
}

// Work is re-executed during replay like any other body code.
func (x *segTx) Work(c int64) {
	if !x.replay {
		x.s.liveSub(x.t, max(c, 0)).Work(c)
	}
	tm.Spin(c)
}

func (x *segTx) NonTxWork(c int64) { tm.Spin(c) } // outside sub-HTM transactions

func (x *segTx) Read(a mem.Addr) uint64 {
	if x.replay {
		return x.replayExpect(opRead, a, 0)
	}
	s, t := x.s, x.t
	ht, d := x.live(a)
	if t.checkCells && s.held(t, ht.Read(s.cell(a))) {
		ht.Abort(codeLockConflict) // locked by others (Figure 2 lines 25-26)
	}
	t.ds.Read[d].Add(uint32(a))
	v := ht.Read(a)
	t.opLog = append(t.opLog, opRec{kind: opRead, addr: a, val: v})
	return v
}

func (x *segTx) Write(a mem.Addr, v uint64) {
	if x.replay {
		x.replayExpect(opWrite, a, v)
		return
	}
	s, t := x.s, x.t
	ht, d := x.live(a)
	if s.cfg.Opaque {
		// Lock the address-embedded cell (Figure 2 line 34): the tag is
		// buffered under the cell line's write monitor and becomes visible
		// when this sub-HTM transaction commits. Nothing is loaded here; the
		// cell's old value is checked at the sub-commit (checkWrittenCells).
		ht.Overwrite(s.cell(a), t.tag)
	}
	t.ds.Write[d].Add(uint32(a))
	// Figure 1 lines 23-25: log the old value, write in place (buffered
	// until the sub-HTM commit). The old value is read at the sub-commit
	// (fillUndo), not here.
	ht.Overwrite(a, v)
	t.undo = append(t.undo, undoRec{addr: a})
	t.opLog = append(t.opLog, opRec{kind: opWrite, addr: a, val: v})
	t.ds.Wrote |= 1 << uint(d)
}

// WriteLocal is not logged: the committed prefix already stored its values.
func (x *segTx) WriteLocal(a mem.Addr, v uint64) {
	if !x.replay {
		x.s.liveSub(x.t, x.s.opCycles).WriteLocal(a, v)
	}
}

// replayExpect consumes the next operation-log record, switching back to
// live execution when the committed prefix is exhausted. A divergence
// between the replayed body and the log means the body is not deterministic
// in its reads; the only safe recovery is a global abort.
func (x *segTx) replayExpect(kind opKind, a mem.Addr, v uint64) uint64 {
	t := x.t
	// Partition points are soft: auto-activated breaking points from a
	// previous execution need not line up with this execution's, so pause
	// records are skipped transparently.
	for t.replayPos < len(t.opLog) && t.opLog[t.replayPos].kind == opPause {
		t.replayPos++
	}
	if kind == opPause {
		x.replay = t.replayPos < len(t.opLog)
		return 0
	}
	if t.replayPos >= len(t.opLog) {
		// Committed prefix fully replayed: go live and re-dispatch.
		x.replay = false
		if kind == opRead {
			return x.Read(a)
		}
		x.Write(a, v)
		return 0
	}
	rec := t.opLog[t.replayPos]
	if rec.kind != kind || rec.addr != a || (kind == opWrite && rec.val != v) {
		panic(globalAbortPanic{})
	}
	t.replayPos++
	// The next operation goes live once the log is exhausted.
	x.replay = t.replayPos < len(t.opLog)
	return rec.val
}

// slowTx is the slow path's view: plain memory under the global lock.
type slowTx struct {
	s *System
	t *thread
}

func (x *slowTx) Thread() int                     { return x.t.id }
func (x *slowTx) Pause()                          {}
func (x *slowTx) Read(a mem.Addr) uint64          { return x.s.m.Load(a) }
func (x *slowTx) Write(a mem.Addr, v uint64)      { x.s.m.Store(a, v) }
func (x *slowTx) WriteLocal(a mem.Addr, v uint64) { x.s.m.Store(a, v) }
func (x *slowTx) Work(c int64)                    { tm.Spin(c) }
func (x *slowTx) NonTxWork(c int64)               { tm.Spin(c) }
