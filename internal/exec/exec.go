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
	"time"

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
	// guaranteed one, and the governor's Serialize verdicts, which act by
	// serializing, do not apply to it.
	Slow func()
	// Domains, when non-nil, reports how many memory domains the most
	// recent fast or mid attempt touched (sharded-domain systems only).
	// The kernel uses it to attribute commits and aborts of cross-domain
	// transactions; nil or a result < 2 means single-domain.
	Domains func() int
}

// Thread is one thread's kernel-side state: its stats shard, contention
// budget, starvation score, and backoff PRNG. Obtain via Runner.Thread and use
// from one goroutine at a time.
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

	// Governor state (nil gv = no governor; the hot path pays one branch,
	// mirroring the tracing plumbing). lastPath remembers the committing
	// path for the breaker's Finish feedback.
	gv       *governor.State
	lastPath uint8
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
	if t.gv != nil {
		t.gv.NoteHWAbort() // circuit-breaker evidence
	}
	if t.r.pol.RetryBudget > 0 {
		t.budget--
	}
	if t.buf != nil {
		ts := trace.Now()
		c := uint8(res.Reason)
		t.buf.Record(ts, trace.EvHWAbort, t.txID, 0, c, 0)
		if int(c) < len(t.lat.Abort) {
			t.lat.Abort[c].Add(ts - t.beginTS)
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

// traceCommit closes the scope: the commit event tagged with the final
// execution path, and the begin-to-commit latency for that path.
func (t *Thread) traceCommit(path uint8) {
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
	t.buf.Record(ts, trace.EvSWAbort, t.txID, 0, trace.CauseConflict, 0)
	t.lat.Abort[trace.CauseConflict].Add(ts - t.beginTS)
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

	mu      sync.Mutex // guards the trace sink, the governor, and the profile
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
	if r.gov != nil {
		t.gv = r.gov.State(id)
	}
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

// SetGovernor attaches the resource governor (nil detaches): every existing
// and future Thread gets its per-thread governor cell. Like SetTrace it
// must not be flipped while transactions run — attach before starting
// workers.
func (r *Runner) SetGovernor(g *governor.Governor) {
	r.mu.Lock()
	r.gov = g
	r.mu.Unlock()
	for _, t := range r.threads.All() {
		if g != nil {
			t.gv = g.State(t.id)
		} else {
			t.gv = nil
		}
	}
}

// Governor returns the attached governor (nil when none).
func (r *Runner) Governor() *governor.Governor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gov
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

// escalation kinds, matching the tm.Stats escalation counters.
type escalation uint8

const (
	escBudget escalation = iota
	escStarve
)

// Run executes one transaction for thread id through the policy's levels.
// It always commits (the slow path cannot fail), so it returns only when
// the transaction's effects are durable.
func (r *Runner) Run(id int, txn *Txn) {
	t := r.Thread(id)
	t.budget = r.pol.RetryBudget
	t.traceBegin()
	defer r.cmFinish(t)

	// Governor admission: the per-thread circuit breaker acts before any
	// work is done. A Serialize verdict needs a slow path to serialize
	// onto — the pure STMs and NOrecRH (no Slow) run their normal schedule
	// regardless, whose unbounded software loop is their guaranteed path.
	probe := false
	if t.gv != nil {
		switch r.gov.Begin(t.gv) {
		case governor.Serialize:
			if txn.Slow != nil {
				t.sh.BreakerSlow.Inc()
				r.runSlow(t, txn)
				return
			}
		case governor.Probe:
			probe = true
			t.sh.BreakerProbes.Inc()
			t.TraceEvent(trace.EvBreakerProbe, 0)
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
				t.sh.CommitsHTM.Inc()
				if txn.Domains != nil && txn.Domains() > 1 {
					t.sh.CrossDomainCommits.Inc()
				}
				t.lastPath = trace.PathHTM
				t.traceCommit(trace.PathHTM)
				return
			}
			t.sh.RecordAbort(res.Reason)
			if txn.Domains != nil && txn.Domains() > 1 {
				t.sh.CrossDomainAborts.Inc()
			}
			t.NoteHWAbort(res)
			if t.budgetExhausted() {
				r.escalate(t, escBudget)
				r.runSlow(t, txn)
				return
			}
			if r.pol.StopFastOnResource && (res.Reason == htm.Capacity || res.Reason == htm.Other) {
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
				t.sh.CommitsSW.Inc()
				if txn.Domains != nil && txn.Domains() > 1 {
					t.sh.CrossDomainCommits.Inc()
				}
				t.lastPath = trace.PathSW
				t.traceCommit(trace.PathSW)
				return
			}
			t.sh.AbortsConflict.Inc()
			if txn.Domains != nil && txn.Domains() > 1 {
				t.sh.CrossDomainAborts.Inc()
			}
			t.traceSWAbort()
			t.starve++
			if t.budgetExhausted() {
				r.escalate(t, escBudget)
				r.runSlow(t, txn)
				return
			}
			if r.pol.StarveThreshold > 0 && t.starve >= r.pol.StarveThreshold {
				// A starving transaction serializes: it cannot lose
				// another conflict on the slow path.
				r.escalate(t, escStarve)
				r.runSlow(t, txn)
				return
			}
			if r.pol.Backoff {
				r.backoff(t, attempt)
			}
		}
	}

	r.runSlow(t, txn)
}

// runSlow runs the guaranteed level and accounts the commit.
func (r *Runner) runSlow(t *Thread, txn *Txn) {
	t.TraceEvent(trace.EvPathSlow, 0)
	txn.Slow()
	t.sh.CommitsGL.Inc()
	t.lastPath = trace.PathGL
	t.traceCommit(trace.PathGL)
}

// cmFinish closes the transaction's contention-manager scope after the
// commit (every Run commits): the starvation score decays.
func (r *Runner) cmFinish(t *Thread) {
	if t.gv != nil {
		// Breaker feedback on the final path: a hardware commit closes an
		// open breaker, a lock-saved hardware failure feeds the trip streak.
		switch r.gov.Finish(t.gv, t.lastPath) {
		case governor.TransTrip:
			t.sh.BreakerTrips.Inc()
			t.TraceEvent(trace.EvBreakerTrip, 0)
		case governor.TransClose:
			t.sh.BreakerCloses.Inc()
			t.TraceEvent(trace.EvBreakerClose, 0)
		}
	}
	t.starve >>= 1
}

// escalate records one slow-path escalation; the caller then runs the slow
// path, so a transaction escalates at most once.
func (r *Runner) escalate(t *Thread, kind escalation) {
	if kind == escBudget {
		t.sh.EscalationsBudget.Inc()
	} else {
		t.sh.EscalationsStarve.Inc()
	}
	t.TraceEvent(trace.EvEscalate, uint64(kind))
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
