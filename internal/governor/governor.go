// Package governor is the resource-governance layer over the transactional
// execution kernel: the part of the stack that *acts* on sustained
// best-effort-HTM failure instead of merely absorbing it. The paper's
// premise is that hardware transactions may always fail for reasons the
// program never caused; the retry/escalation machinery in internal/exec
// guarantees each individual transaction completes, but gives no global
// policy. The governor adds two:
//
//   - A per-thread HTM circuit breaker: after a run of transactions that
//     suffered hardware aborts and were only saved by the global-lock path,
//     the thread stops attempting hardware at all and goes direct to the
//     slow path; a half-open probe every ProbeEvery-th transaction retries
//     the hardware so the fast and partitioned paths come back as soon as
//     hardware transactions succeed again.
//   - A progress watchdog (watchdog.go): a sampling monitor over the
//     per-thread stats shards that detects stalled workers, lemming-wait
//     pileups, and degraded-mode oscillation.
//
// The per-transaction hooks — Begin, NoteHWAbort, Finish — are
// allocation-free and touch only the calling thread's cache-line-padded
// State, so an attached-but-idle governor costs the kernel a few branches
// per transaction. The hooks are pure state machines: the kernel owns all
// stats recording and trace emission, keyed off the returned verdicts and
// transitions. None of the hooks may be called from inside a hardware
// window: only exec holds a *State, and it calls the hooks at the kernel
// boundary, between attempts. TestHooksAllocationFree pins the hooks
// allocation-free.
package governor

import (
	"sync/atomic"

	"repro/internal/perthread"
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
	// path: the thread's breaker is open, its hardware has been failing
	// persistently.
	Serialize
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

// Config tunes one Governor. The zero value disables the breaker; use
// DefaultConfig for the breaker-enabled default.
type Config struct {
	// BreakerThreshold trips a thread's circuit breaker after this many
	// consecutive transactions that suffered hardware aborts and had to be
	// saved by the global-lock path. Zero disables the breaker.
	BreakerThreshold int
}

// ProbeEvery is the half-open period: while a thread's breaker is open,
// every ProbeEvery-th transaction probes the hardware.
const ProbeEvery = 16

// DefaultConfig returns the governor default: the breaker trips at 8
// consecutive hardware-failed transactions.
func DefaultConfig() Config {
	return Config{BreakerThreshold: 8}
}

// State is one thread's private governor cell: the circuit-breaker state
// machine and the in-transaction flag. Single-writer — only the owning
// thread's hooks touch it — and padded so neighbouring threads never share
// a cache line.
type State struct {
	sinceTrip uint64 // transactions begun since the breaker last tripped
	streak    int32  // consecutive hardware-failed, lock-saved transactions
	// active is set between Begin and Finish. The owner only stores; the
	// watchdog goroutine reads it through Governor.Active.
	active  atomic.Bool
	open    bool // breaker open: hardware attempts suspended
	probing bool // current transaction is a half-open probe
	sawHW   bool // current transaction suffered >= 1 hardware abort
	_       [64 - 8 - 4 - 4 - 3]byte
}

// Open reports whether the thread's breaker is currently open.
func (st *State) Open() bool { return st.open }

// NoteHWAbort records that the current transaction suffered a hardware
// abort (breaker evidence). Owner thread only; allocation-free.
func (st *State) NoteHWAbort() { st.sawHW = true }

// Governor is one system's resource-governance state: the per-thread
// breaker cells. Attach via the system's execution kernel
// (exec.Runner.SetGovernor); one Governor serves one system instance.
type Governor struct {
	cfg    Config
	states perthread.Set[State]
}

// New builds a governor from cfg.
func New(cfg Config) *Governor { return &Governor{cfg: cfg} }

// Config returns the governor's configuration.
func (g *Governor) Config() Config { return g.cfg }

// State returns thread id's governor cell, growing the set as needed.
// Callers on a measured path must cache the pointer per thread.
func (g *Governor) State(id int) *State { return g.states.Get(id) }

// Active returns how many threads are between Begin and Finish right
// now. Any goroutine may call it (the watchdog and the obs sampler do);
// the count is a sum of per-thread flags, not one coherent instant.
func (g *Governor) Active() int64 {
	var n int64
	for _, st := range g.states.All() {
		if st.active.Load() {
			n++
		}
	}
	return n
}

// Begin admits one transaction for the owning thread of st, resetting the
// per-transaction state and returning the verdict. Allocation-free. Every
// Begin must be paired with exactly one Finish.
func (g *Governor) Begin(st *State) Verdict {
	st.active.Store(true)
	st.sawHW = false
	st.probing = false
	if st.open {
		st.sinceTrip++
		if st.sinceTrip%ProbeEvery == 0 {
			st.probing = true
			return Probe
		}
		return Serialize
	}
	return Admit
}

// Finish closes the transaction's governor scope: the breaker state
// machine advances on the final execution path (a trace.Path* value). A
// whole-hardware commit resets the failure streak and closes an open
// breaker; a transaction that suffered hardware aborts and was saved by the
// global-lock path lengthens the streak, tripping the breaker at the
// threshold. Software commits leave the streak unchanged — they neither
// prove nor disprove the hardware.
// Allocation-free; owner thread only.
func (g *Governor) Finish(st *State, path uint8) Transition {
	st.active.Store(false)
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
