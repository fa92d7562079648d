// Package governor is the resource-governance layer over the transactional
// execution kernel: the part of the stack that *acts* on sustained
// best-effort-HTM failure instead of merely absorbing it. The paper's
// premise is that hardware transactions may always fail for reasons the
// program never caused; the retry/escalation machinery in internal/exec
// guarantees each individual transaction completes, but gives no global
// policy. The governor adds three:
//
//   - Admission control: per-transaction time and attempt budgets bound how
//     long one transaction may stay optimistic before it is serialized, and
//     a concurrency ceiling sheds load by serializing (or, at a service
//     boundary, rejecting) transactions that arrive beyond it.
//   - A per-thread HTM circuit breaker: after a run of transactions that
//     suffered hardware aborts and were only saved by the global-lock path,
//     the thread stops attempting hardware at all and goes direct to the
//     slow path; a half-open probe every few transactions retries the
//     hardware so the fast and partitioned paths come back as soon as
//     hardware transactions succeed again.
//   - A progress watchdog (watchdog.go): a sampling monitor over the
//     per-thread stats shards that detects stalled workers, lemming-wait
//     pileups, and degraded-mode oscillation.
//
// The per-transaction hooks — Begin, ChargeAttempt, NoteHWAbort, Finish —
// are allocation-free and touch only the calling thread's cache-line-padded
// State (plus one shared counter when a concurrency ceiling is set), so an
// attached-but-idle governor costs the kernel a few branches per
// transaction. The hooks are pure state machines: the kernel owns all stats
// recording and trace emission, keyed off the returned verdicts and
// transitions. None of the hooks may be called from inside a hardware
// window (parthtm-vet's htmregion analyzer enforces this, and checks the
// hooks allocation-free).
package governor

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Verdict is the admission decision for one transaction.
type Verdict uint8

const (
	// Admit runs the transaction through the normal level schedule.
	Admit Verdict = iota
	// Probe is Admit while the breaker is open: the transaction retries
	// the hardware levels as a half-open probe, and its outcome decides
	// whether the breaker closes.
	Probe
	// Serialize sends the transaction straight to the guaranteed slow
	// path. Inside the kernel this is the strongest possible response —
	// Atomic must commit; callers at a service boundary that can refuse
	// work use TryAcquire/Release instead, where shedding is a rejection.
	Serialize
)

// Reason explains a Serialize verdict.
type Reason uint8

const (
	// ReasonNone accompanies Admit and Probe.
	ReasonNone Reason = iota
	// ReasonOverload is admission-control load shedding: more transactions
	// in flight than the configured ceiling.
	ReasonOverload
	// ReasonBreaker is an open circuit breaker: this thread's hardware has
	// been failing persistently.
	ReasonBreaker
)

// Transition is a circuit-breaker state change observed at Finish.
type Transition uint8

const (
	// TransNone: no breaker edge.
	TransNone Transition = iota
	// TransTrip: the breaker opened (persistent HTM-path failure).
	TransTrip
	// TransClose: the breaker closed (a probe committed in hardware).
	TransClose
)

// Config tunes one Governor. The zero value disables every mechanism; use
// DefaultConfig for the breaker-enabled defaults.
type Config struct {
	// TimeBudget bounds one transaction's optimistic phase: once it has
	// been running longer than this, the next attempt is skipped and the
	// transaction serializes. Zero disables the bound; AutoTune derives one
	// from observed commit latencies.
	TimeBudget time.Duration
	// AttemptBudget bounds the optimistic attempts (hardware and software)
	// one transaction makes before it serializes. Zero disables the bound.
	AttemptBudget int
	// MaxConcurrent is the admission ceiling: transactions beginning while
	// this many are already in flight are shed (serialized in the kernel,
	// rejected at TryAcquire). Zero disables shedding.
	MaxConcurrent int
	// BreakerThreshold trips a thread's circuit breaker after this many
	// consecutive transactions that suffered hardware aborts and had to be
	// saved by the global-lock path. Zero disables the breaker.
	BreakerThreshold int
	// BreakerProbeEvery, while the breaker is open, lets every Nth
	// transaction probe the hardware (half-open). Values below 1 default
	// to 16.
	BreakerProbeEvery int
	// AutoTuneFactor scales the observed p99 commit latency into a
	// TimeBudget when AutoTune is called. Values <= 0 default to 8.
	AutoTuneFactor float64
}

// DefaultConfig returns the governor defaults: breaker at 8 consecutive
// hardware-failed transactions, a probe every 16th transaction while open,
// no static time/attempt budgets (AutoTune can derive a time budget), no
// concurrency ceiling.
func DefaultConfig() Config {
	return Config{
		BreakerThreshold:  8,
		BreakerProbeEvery: 16,
		AutoTuneFactor:    8,
	}
}

// State is one thread's private governor cell: the circuit-breaker state
// machine and the current transaction's admission budget. Single-writer —
// only the owning thread's hooks touch it — and padded so neighbouring
// threads never share a cache line.
type State struct {
	deadline  int64  // absolute trace.Now() deadline; 0 = no time budget
	sinceTrip uint64 // transactions begun since the breaker last tripped
	streak    int32  // consecutive hardware-failed, lock-saved transactions
	attempts  int32  // optimistic attempts charged to the current txn
	open      bool   // breaker open: hardware attempts suspended
	probing   bool   // current transaction is a half-open probe
	sawHW     bool   // current transaction suffered >= 1 hardware abort
	_         [64 - 8 - 8 - 4 - 4 - 3]byte
}

// Open reports whether the thread's breaker is currently open.
func (st *State) Open() bool { return st.open }

// NoteHWAbort records that the current transaction suffered a hardware
// abort (breaker evidence). Owner thread only; allocation-free.
func (st *State) NoteHWAbort() { st.sawHW = true }

// Governor is one system's resource-governance state: the shared admission
// gauge plus per-thread breaker/budget cells. Attach via the system's
// execution kernel (exec.Runner.SetGovernor); one Governor serves one
// system instance.
type Governor struct {
	cfg Config

	// timeBudget is the live per-transaction time budget in nanoseconds
	// (TimeBudget, unless AutoTune rewrote it). Atomic so AutoTune may run
	// while workers are admitting.
	timeBudget atomic.Int64
	// inflight is the admission gauge (only maintained when MaxConcurrent
	// or TryAcquire shedding is in use).
	inflight atomic.Int64

	mu     sync.Mutex // guards state-slice growth
	states atomic.Pointer[[]*State]
}

// New builds a governor from cfg, applying the documented defaults for
// unset breaker/auto-tune fields.
func New(cfg Config) *Governor {
	if cfg.BreakerProbeEvery < 1 {
		cfg.BreakerProbeEvery = 16
	}
	if cfg.AutoTuneFactor <= 0 {
		cfg.AutoTuneFactor = 8
	}
	g := &Governor{cfg: cfg}
	g.timeBudget.Store(int64(cfg.TimeBudget))
	return g
}

// Config returns the governor's configuration (time budget as configured;
// see TimeBudget for the live, possibly auto-tuned value).
func (g *Governor) Config() Config { return g.cfg }

// State returns thread id's governor cell, growing the set as needed.
// Callers on a measured path must cache the pointer per thread.
func (g *Governor) State(id int) *State {
	if p := g.states.Load(); p != nil && id < len(*p) {
		return (*p)[id]
	}
	return g.growState(id)
}

func (g *Governor) growState(id int) *State {
	g.mu.Lock()
	defer g.mu.Unlock()
	var cur []*State
	if p := g.states.Load(); p != nil {
		cur = *p
	}
	if id < len(cur) {
		return cur[id]
	}
	next := make([]*State, id+1)
	copy(next, cur)
	for i := len(cur); i < len(next); i++ {
		next[i] = new(State)
	}
	g.states.Store(&next)
	return next[id]
}

// NeedsTime reports whether admission needs a timestamp (a time budget is
// set): the kernel reads the clock only when it will be used.
func (g *Governor) NeedsTime() bool { return g.timeBudget.Load() > 0 }

// TimeBudget returns the live per-transaction time budget (zero when
// disabled).
func (g *Governor) TimeBudget() time.Duration {
	return time.Duration(g.timeBudget.Load())
}

// SetTimeBudget replaces the live time budget (zero disables it). Safe
// while workers run.
func (g *Governor) SetTimeBudget(d time.Duration) {
	if d < 0 {
		d = 0
	}
	g.timeBudget.Store(int64(d))
}

// Inflight returns the current admission gauge (meaningful only when a
// concurrency ceiling or TryAcquire is in use).
func (g *Governor) Inflight() int64 { return g.inflight.Load() }

// Begin admits one transaction for the owning thread of st, resetting the
// per-transaction state and returning the verdict. now is a trace.Now()
// timestamp, required only when NeedsTime() (pass 0 otherwise).
// Allocation-free. Every Begin must be paired with exactly one Finish.
func (g *Governor) Begin(st *State, now int64) (Verdict, Reason) {
	st.attempts = 0
	st.sawHW = false
	st.probing = false
	st.deadline = 0
	if now != 0 {
		if b := g.timeBudget.Load(); b > 0 {
			st.deadline = now + b
		}
	}
	if m := g.cfg.MaxConcurrent; m > 0 {
		if g.inflight.Add(1) > int64(m) {
			return Serialize, ReasonOverload
		}
	}
	if st.open {
		st.sinceTrip++
		if st.sinceTrip%uint64(g.cfg.BreakerProbeEvery) == 0 {
			st.probing = true
			return Probe, ReasonNone
		}
		return Serialize, ReasonBreaker
	}
	return Admit, ReasonNone
}

// ChargeAttempt charges one optimistic attempt against the current
// transaction's budgets, reporting false when the attempt or time budget is
// exhausted — the caller serializes instead of attempting. now carries a
// trace.Now() timestamp when NeedsTime() (pass 0 otherwise).
// Allocation-free; owner thread only.
func (g *Governor) ChargeAttempt(st *State, now int64) bool {
	st.attempts++
	if b := g.cfg.AttemptBudget; b > 0 && int(st.attempts) > b {
		return false
	}
	if st.deadline != 0 && now > st.deadline {
		return false
	}
	return true
}

// Finish closes the transaction's governor scope: the admission slot is
// released and the breaker state machine advances on the final execution
// path (a trace.Path* value). A whole-hardware commit resets the failure
// streak and closes an open breaker; a transaction that suffered hardware
// aborts and was saved by the global-lock path lengthens the streak,
// tripping the breaker at the threshold. Software commits leave the streak
// unchanged — they neither prove nor disprove the hardware.
// Allocation-free; owner thread only.
func (g *Governor) Finish(st *State, path uint8) Transition {
	if g.cfg.MaxConcurrent > 0 {
		g.inflight.Add(-1)
	}
	if g.cfg.BreakerThreshold <= 0 {
		return TransNone
	}
	switch {
	case path == trace.PathHTM:
		st.streak = 0
		if st.open {
			st.open = false
			st.sinceTrip = 0
			return TransClose
		}
	case st.open:
		// Still open: a failed probe (or a serialized transaction) keeps
		// the breaker as it is.
	case st.sawHW && path == trace.PathGL:
		st.streak++
		if int(st.streak) >= g.cfg.BreakerThreshold {
			st.open = true
			st.sinceTrip = 0
			st.streak = 0
			return TransTrip
		}
	default:
		// A software commit, or a lock-path commit with no hardware abort
		// observed (pure contention): not hardware's fault.
	}
	return TransNone
}

// TryAcquire reserves one admission slot without blocking, for callers at
// a service boundary (a server's request path) that can refuse work: false
// means the ceiling is reached and the request should be rejected or
// queued rather than started. Pair every true with one Release. With no
// ceiling configured TryAcquire always admits (and still maintains the
// gauge for observability).
func (g *Governor) TryAcquire() bool {
	n := g.inflight.Add(1)
	if m := g.cfg.MaxConcurrent; m > 0 && n > int64(m) {
		g.inflight.Add(-1)
		return false
	}
	return true
}

// Release returns a TryAcquire slot.
func (g *Governor) Release() { g.inflight.Add(-1) }

// AutoTune derives the per-transaction time budget from observed commit
// latencies: AutoTuneFactor times the slowest per-path p99 (a transaction
// that has been optimistic for several times the p99 commit latency is not
// going to win — serialize it). Snapshots with no commits leave the budget
// unchanged. Safe while workers run.
func (g *Governor) AutoTune(snap trace.LatencySnapshot) {
	var p99 int64
	for p := range snap.Path {
		if s := &snap.Path[p]; s.Count > 0 && s.P99 > p99 {
			p99 = s.P99
		}
	}
	if p99 <= 0 {
		return
	}
	g.timeBudget.Store(int64(g.cfg.AutoTuneFactor * float64(p99)))
}
