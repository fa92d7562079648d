// Package exec is the shared transactional execution kernel: the retry /
// backoff / lemming-wait / escalation loop that every system in this
// repository used to re-implement privately. A system describes its commit
// levels as a Policy (how many attempts per level, which gates apply) and
// each transaction as a Txn (the fast hardware attempt, the mid-level
// software attempt, the always-succeeds slow path); the Runner drives the
// levels, charges the hardware-abort budget, sends starving transactions to
// the slow path, applies jittered exponential backoff, and records every
// commit and abort into the per-thread tm.Stats shards.
//
// The level structure mirrors the paper's Part-HTM schedule (fast →
// partitioned → global lock) but degenerates cleanly: HTM-GL uses only
// Fast+Slow, the pure STMs (NOrec, RingSTM) use only an unbounded Mid,
// and NOrecRH uses Fast plus an unbounded Mid.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abort"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/perthread"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Policy describes a system's retry schedule and contention-management
// parameters. The zero value is a valid minimal policy: no fast level, an
// unbounded mid level, no gates, no budget — the shape of a pure STM.
type Policy struct {
	// FastAttempts is how many Fast (hardware) attempts are made before
	// moving on. Zero disables the fast level.
	FastAttempts int
	// StopFastOnResource abandons remaining fast attempts after a capacity
	// or timer abort (retrying would fail the same way; the next level is
	// the remedy). Part-HTM and NOrecRH set it; HTM-GL retries through.
	StopFastOnResource bool
	// MidAttempts is how many Mid attempts are made before falling through
	// to Slow. Zero with a non-nil Txn.Mid means retry forever (the pure
	// STMs' loop, which has no slow path to fall to).
	MidAttempts int
	// GateMid applies the lemming-wait gate before each Mid attempt too
	// (Part-HTM waits for the global lock before a partitioned attempt).
	GateMid bool
	// Backoff applies jittered exponential backoff between failed Mid
	// attempts.
	Backoff bool
	// MaxBackoff bounds the exponential backoff; <= 0 degrades backoff to
	// a bare yield.
	MaxBackoff time.Duration

	// RetryBudget caps the hardware aborts one transaction may absorb
	// before it escalates straight to the slow path. Zero disables the
	// budget.
	RetryBudget int
	// StarveThreshold is the starvation score (mid-level aborts, halved at
	// each commit) at which a transaction escalates to the slow path. Zero
	// disables starvation escalation.
	StarveThreshold int
	// LemmingWaitSpins is ignored: the gate wait is unbounded.
	//
	// Deprecated: kept only until the benchmark's ledger stops setting it.
	LemmingWaitSpins int
	// DegradeThreshold is ignored: the degraded serialized mode it tuned
	// is gone.
	//
	// Deprecated: kept only until the benchmark's ledger stops setting it.
	DegradeThreshold int
}

// Txn describes one transaction's level implementations. The kernel owns
// all stats recording: level callbacks only execute and report.
type Txn struct {
	// SkipFast skips the fast level for this transaction only (self-tuned
	// fast-path avoidance); the policy's FastAttempts is unchanged.
	SkipFast bool
	// Fast runs one hardware attempt. nil disables the fast level.
	Fast func() htm.Result
	// Mid runs one software attempt, reporting whether it committed. nil
	// disables the mid level.
	Mid func() bool
	// Slow runs the transaction to guaranteed completion (global lock).
	// nil means the system has no slow path: its unbounded Mid level is the
	// guaranteed one, and an open circuit breaker, which acts by
	// serializing, does not apply to it.
	Slow func()
	// Domains, when non-nil, reports how many memory domains the most
	// recent fast or mid attempt touched (sharded-domain systems only).
	// The kernel uses it to attribute commits and aborts of cross-domain
	// transactions; nil or a result < 2 means single-domain.
	Domains func() int
}

// Thread is one thread's kernel-side state: its stats shard, contention
// budget, starvation score, circuit breaker, and backoff PRNG. Obtain via
// Runner.Thread and use from one goroutine at a time.
type Thread struct {
	r  *Runner
	id int
	sh *tm.Shard

	rngState uint64

	// Contention-manager state: the transaction's remaining hardware-abort
	// budget and the thread's mid-abort score (halved at each commit).
	budget int
	starve int

	// Tracing state (nil buf = tracing disabled; the hot path pays one
	// branch). txID identifies the current transaction across retries;
	// beginTS anchors the latency histograms.
	buf     *trace.Buffer
	lat     *trace.LatShard
	txSeq   uint64
	txID    uint64
	beginTS int64

	// Circuit-breaker state, advanced only while a governor is attached
	// (the hot path pays one branch, mirroring the tracing plumbing).
	// lastPath remembers the committing path for cmFinish.
	sinceTrip uint64 // transactions begun since the breaker last tripped
	streak    int32  // consecutive hardware-failed, lock-saved transactions
	open      bool   // breaker open: hardware attempts suspended
	sawHW     bool   // current transaction suffered >= 1 hardware abort
	lastPath  uint8
	// active is set for the length of Run. The owner only stores; any
	// goroutine reads it through Runner.Inflight.
	active atomic.Bool
}

// Shard returns the thread's stats shard (for system-specific counters the
// kernel does not own, e.g. serial-time accounting).
func (t *Thread) Shard() *tm.Shard { return t.sh }

func (t *Thread) rng() uint64 {
	t.rngState = t.rngState*6364136223846793005 + 1442695040888963407
	return t.rngState >> 11
}

// NoteHWAbort charges one hardware abort against the transaction's budget
// and accounts injector-forced faults. Systems whose level callbacks absorb
// hardware aborts internally (Part-HTM's sub-HTM transactions) call this
// for each one; the kernel calls it itself for fast-level aborts. When
// tracing is on it also records the abort event with its cause and feeds
// the begin-to-abort latency histogram (the caller is by definition
// outside the hardware window — the abort already happened).
func (t *Thread) NoteHWAbort(res htm.Result) {
	if res.Injected {
		t.sh.FaultsInjected.Inc()
	}
	t.sawHW = true // circuit-breaker evidence
	if t.r.pol.RetryBudget > 0 {
		t.budget--
	}
	if t.buf != nil {
		ts := trace.Now()
		t.buf.Record(ts, trace.EvHWAbort, t.txID, 0, res.Reason, 0)
		if res.Reason < abort.Count {
			t.lat.Abort[res.Reason].Add(ts - t.beginTS)
		}
	}
}

// TraceEvent records one protocol event against the thread's current
// transaction (sub-HTM begin/commit, lock traffic, ring publication —
// events the kernel cannot see because they happen inside the systems'
// level callbacks). A no-op when tracing is off. Callers must be outside
// hardware windows: the timestamp is taken here.
func (t *Thread) TraceEvent(k trace.Kind, arg uint64) {
	if t.buf != nil {
		t.buf.Record(trace.Now(), k, t.txID, arg, 0, 0)
	}
}

// traceBegin opens the transaction's trace scope: a fresh transaction ID
// and the begin event anchoring the latency measurements.
func (t *Thread) traceBegin() {
	if t.buf == nil {
		return
	}
	ts := trace.Now()
	t.txSeq++
	t.txID = uint64(t.id)<<32 | (t.txSeq & (1<<32 - 1))
	t.beginTS = ts
	t.buf.Record(ts, trace.EvBegin, t.txID, 0, 0, 0)
}

// commit accounts the transaction's commit on path: its counter c, the
// cross-domain count when domains reports more than one domain (nil for the
// slow path, which counts none), the path cmFinish reads, and the trace
// scope's close — the commit event and the begin-to-commit latency.
func (t *Thread) commit(c *tm.Counter, domains func() int, path uint8) {
	c.Inc()
	if domains != nil && domains() > 1 {
		t.sh.CrossDomainCommits.Inc()
	}
	t.lastPath = path
	if t.buf == nil {
		return
	}
	ts := trace.Now()
	t.buf.Record(ts, trace.EvCommit, t.txID, 0, 0, path)
	t.lat.Path[path].Add(ts - t.beginTS)
}

// traceSWAbort records a software-level abort (mid-level validation or
// conflict failure) and its begin-to-abort latency under the conflict
// cause.
func (t *Thread) traceSWAbort() {
	if t.buf == nil {
		return
	}
	ts := trace.Now()
	t.buf.Record(ts, trace.EvSWAbort, t.txID, 0, abort.Conflict, 0)
	t.lat.Abort[abort.Conflict].Add(ts - t.beginTS)
}

func (t *Thread) budgetExhausted() bool {
	return t.r.pol.RetryBudget > 0 && t.budget <= 0
}

// Runner drives transactions through a Policy's levels. One Runner per
// system instance; it owns the system's contention-manager state and writes
// all level outcomes into the system's tm.Stats. It is also the one
// attach-and-inspect seam: systems expose it through a Kernel() accessor
// and add no forwarding methods of their own, so trace, governor, and
// profiler attach here (SetTrace/SetGovernor/SetProfile) and are read back
// here (TraceSink/Governor/Profile). A new instrument is one edit in this
// type.
type Runner struct {
	pol   Policy
	stats *tm.Stats
	// gateFree reports whether the optimistic levels' gate (in every
	// current system: the global lock) is open. nil means ungated.
	gateFree func() bool

	// mu guards the trace sink, the governor, and the profile. Run reads
	// gov without it: SetGovernor is called only while no transaction runs.
	mu      sync.Mutex
	threads perthread.Set[Thread]
	sink    *trace.Sink
	gov     *governor.Governor
	prof    *prof.Profile
}

// New creates a Runner over the system's stats. gateFree may be nil when
// the policy uses no gate.
func New(pol Policy, stats *tm.Stats, gateFree func() bool) *Runner {
	r := &Runner{pol: pol, stats: stats, gateFree: gateFree}
	r.threads.Init(r.newThread)
	return r
}

// Thread returns thread id's kernel state, growing the set as needed.
// Callers on a measured path should cache the pointer per thread.
func (r *Runner) Thread(id int) *Thread { return r.threads.Get(id) }

// newThread builds thread id's state with whatever is attached right now.
func (r *Runner) newThread(id int) *Thread {
	t := &Thread{
		r:        r,
		id:       id,
		sh:       r.stats.Shard(id),
		rngState: uint64(id)*0x9E3779B97F4A7C15 + 0x1234567,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t.buf, t.lat = r.sink.Thread(id), r.sink.Lat(id)
	return t
}

// SetTrace attaches a trace sink to the runner (nil detaches): every
// existing and future Thread gets its per-thread event buffer and latency
// shard. It must not be flipped while transactions run — attach before
// starting workers, detach after joining them.
func (r *Runner) SetTrace(s *trace.Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
	for _, t := range r.threads.All() {
		t.buf, t.lat = s.Thread(t.id), s.Lat(t.id)
	}
}

// TraceSink returns the attached trace sink (nil when tracing is off).
func (r *Runner) TraceSink() *trace.Sink {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// SetGovernor attaches the resource governor (nil detaches): while one is
// attached every thread runs the circuit breaker its Config sets and keeps
// the in-flight flag Inflight sums. The breaker's state is the thread's and
// outlives a detach. Like SetTrace it must not be flipped while
// transactions run — attach before starting workers.
func (r *Runner) SetGovernor(g *governor.Governor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gov = g
}

// Governor returns the attached governor (nil when none).
func (r *Runner) Governor() *governor.Governor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gov
}

// Inflight returns how many threads are inside Run right now; it counts
// only while a governor is attached. Any goroutine may call it (the
// watchdog and the obs sampler do); the count is a sum of per-thread flags,
// not one coherent instant.
func (r *Runner) Inflight() int64 {
	var n int64
	for _, t := range r.threads.All() {
		if t.active.Load() {
			n++
		}
	}
	return n
}

// SetProfile attaches the abort-attribution profiler to the runner (nil
// detaches) so Profile can hand it back through the one Kernel() seam. The
// runner records nothing into it: the address-level capture planes are fed
// by the htm engine, which takes the profile separately
// (htm.Engine.SetProfile; harness.Build makes both calls).
func (r *Runner) SetProfile(p *prof.Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prof = p
}

// Profile returns the attached profiler (nil when profiling is off).
func (r *Runner) Profile() *prof.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prof
}

// route names why a transaction goes straight to the slow path. The two
// escalations match the tm.Stats escalation counters, and their values are
// EvEscalate's argument.
type route uint8

const (
	routeBudget  route = iota // the hardware-abort budget ran out
	routeStarve               // the starvation score reached its threshold
	routeBreaker              // the thread's circuit breaker is open
)

// Run executes one transaction for thread id through the policy's levels.
// It always commits (the slow path cannot fail), so it returns only when
// the transaction's effects are durable.
func (r *Runner) Run(id int, txn *Txn) {
	t := r.Thread(id)
	t.budget = r.pol.RetryBudget
	t.traceBegin()
	defer r.cmFinish(t)

	// The circuit breaker acts before any work is done: while it is open a
	// transaction serializes, except every ProbeEvery-th, which retries the
	// hardware as a half-open probe. Serializing needs a slow path to
	// serialize onto — the pure STMs and NOrecRH (no Slow) run their normal
	// schedule regardless, whose unbounded software loop is their
	// guaranteed path.
	probe := false
	if r.gov != nil {
		t.active.Store(true)
		t.sawHW = false
		if t.open {
			t.sinceTrip++
			if t.sinceTrip%governor.ProbeEvery == 0 {
				probe = true
				t.sh.BreakerProbes.Inc()
				t.TraceEvent(trace.EvBreakerProbe, 0)
			} else if txn.Slow != nil {
				r.serialize(t, txn, routeBreaker)
				return
			}
		}
	}

	if txn.Fast != nil && (!txn.SkipFast || probe) && r.pol.FastAttempts > 0 {
		t.TraceEvent(trace.EvPathFast, 0)
		for attempt := 0; attempt < r.pol.FastAttempts; attempt++ {
			// Lemming-effect avoidance: do not even start while the gate
			// (global lock) is held.
			r.awaitGate(t)
			res := txn.Fast()
			if res.Committed {
				t.commit(&t.sh.CommitsHTM, txn.Domains, trace.PathHTM)
				return
			}
			t.sh.RecordAbort(res.Reason)
			if txn.Domains != nil && txn.Domains() > 1 {
				t.sh.CrossDomainAborts.Inc()
			}
			t.NoteHWAbort(res)
			if t.budgetExhausted() {
				r.serialize(t, txn, routeBudget)
				return
			}
			if r.pol.StopFastOnResource && (res.Reason == abort.Capacity || res.Reason == abort.Other) {
				// Resource failure: the next level is the remedy; more
				// fast retries would fail the same way.
				break
			}
		}
	}

	if txn.Mid != nil {
		t.TraceEvent(trace.EvPathPart, 0)
		for attempt := 0; r.pol.MidAttempts == 0 || attempt < r.pol.MidAttempts; attempt++ {
			if r.pol.GateMid {
				r.awaitGate(t)
			}
			if txn.Mid() {
				t.commit(&t.sh.CommitsSW, txn.Domains, trace.PathSW)
				return
			}
			t.sh.AbortsConflict.Inc()
			if txn.Domains != nil && txn.Domains() > 1 {
				t.sh.CrossDomainAborts.Inc()
			}
			t.traceSWAbort()
			t.starve++
			if t.budgetExhausted() {
				r.serialize(t, txn, routeBudget)
				return
			}
			if r.pol.StarveThreshold > 0 && t.starve >= r.pol.StarveThreshold {
				// A starving transaction serializes: it cannot lose
				// another conflict on the slow path.
				r.serialize(t, txn, routeStarve)
				return
			}
			if r.pol.Backoff {
				r.backoff(t, attempt)
			}
		}
	}

	r.runSlow(t, txn)
}

// serialize records why the transaction skips the rest of its schedule and
// runs the slow path; a transaction takes at most one route.
func (r *Runner) serialize(t *Thread, txn *Txn, why route) {
	switch why {
	case routeBudget:
		t.sh.EscalationsBudget.Inc()
		t.TraceEvent(trace.EvEscalate, uint64(why))
	case routeStarve:
		t.sh.EscalationsStarve.Inc()
		t.TraceEvent(trace.EvEscalate, uint64(why))
	case routeBreaker:
		t.sh.BreakerSlow.Inc()
	}
	r.runSlow(t, txn)
}

// runSlow runs the guaranteed level and accounts the commit.
func (r *Runner) runSlow(t *Thread, txn *Txn) {
	t.TraceEvent(trace.EvPathSlow, 0)
	txn.Slow()
	t.commit(&t.sh.CommitsGL, nil, trace.PathGL)
}

// cmFinish closes the transaction's contention-manager scope after the
// commit (every Run commits): the circuit breaker advances on the final
// path and the starvation score decays. A whole-hardware commit resets the
// breaker's failure streak and closes it if open; a transaction that
// suffered hardware aborts and was saved by the global-lock path lengthens
// the streak, tripping the breaker at the governor's threshold. Software
// commits leave the streak unchanged — they neither prove nor disprove the
// hardware.
func (r *Runner) cmFinish(t *Thread) {
	if r.gov != nil {
		t.active.Store(false)
		switch threshold := r.gov.Config().BreakerThreshold; {
		case threshold <= 0:
			// The breaker is off.
		case t.lastPath == trace.PathHTM:
			t.streak = 0
			if t.open {
				t.open, t.sinceTrip = false, 0
				t.sh.BreakerCloses.Inc()
				t.TraceEvent(trace.EvBreakerClose, 0)
			}
		case t.open:
			// A failed probe, or a serialized transaction, keeps the
			// breaker open.
		case t.sawHW && t.lastPath == trace.PathGL:
			t.streak++
			if int(t.streak) >= threshold {
				t.open, t.sinceTrip, t.streak = true, 0, 0
				t.sh.BreakerTrips.Inc()
				t.TraceEvent(trace.EvBreakerTrip, 0)
			}
		default:
			// A software commit, or a lock-path commit with no hardware
			// abort observed (pure contention): not hardware's fault.
		}
	}
	t.starve >>= 1
}

// awaitGate waits for the gate to open before an optimistic attempt. A nil
// gate is always open. The lemming enter/exit events are recorded only when
// the gate actually blocks, so the gate-open common case stays one function
// call.
func (r *Runner) awaitGate(t *Thread) {
	if r.gateFree == nil || r.gateFree() {
		return
	}
	t.TraceEvent(trace.EvLemmingEnter, 0)
	for !r.gateFree() {
		runtime.Gosched()
	}
	t.TraceEvent(trace.EvLemmingExit, 0)
}

// maxBackoffShift caps the backoff exponent: beyond it the doubling has
// long exceeded any sane MaxBackoff, and past 63 the shift would overflow.
const maxBackoffShift = 20

// backoff sleeps for an exponentially growing, jittered duration after a
// mid-level abort (Figure 1, line 59 of the paper).
func (r *Runner) backoff(t *Thread, attempt int) {
	max := r.pol.MaxBackoff
	if max <= 0 {
		runtime.Gosched()
		return
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	d := time.Duration(1<<uint(attempt)) * time.Microsecond
	if d > max {
		d = max
	}
	jitter := time.Duration(t.rng() % uint64(d+1))
	time.Sleep(d/2 + jitter/2)
}
