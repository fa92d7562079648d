// Package hle implements Hardware Lock Elision on the simulated HTM, plus
// the extension the paper describes in §2: "applying Part-HTM to HLE's
// first speculative trial before the lock acquisition is a simple
// extension".
//
// A classic ElidedLock executes the critical section as a hardware
// transaction that subscribes to the lock word; any abort acquires the
// real lock — which is HTM-GL with a single hardware attempt, so that is
// how it is built. A PartHTMLock instead routes the critical section
// through a Part-HTM system — so a section that is merely too big or too
// long for the hardware still runs concurrently as a partitioned
// transaction, and only Part-HTM's slow path ever serializes everything.
//
// Locks are domain-oblivious: an elided critical section's addresses take
// domain-0 semantics (the single-domain topology of internal/domain)
// unless the section runs through a PartHTMLock whose backing Part-HTM
// system was configured with sharded domains — routing is then that
// system's concern, invisible to the lock.
package hle

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/tm"
)

// ElidedLock is a mutual-exclusion lock whose critical sections are
// speculated in hardware: the classic HLE discipline of one hardware trial
// subscribed to the lock word (with lemming avoidance on it), then acquiring
// the word for real. That schedule is HTM-GL's with Retries = 1; the lock is
// a lock-shaped view of one such system. The zero value is not usable;
// create instances with New.
type ElidedLock struct {
	gl *htmgl.System
}

// New creates an elided lock on the engine's memory.
func New(eng *htm.Engine) *ElidedLock {
	return &ElidedLock{gl: htmgl.New(eng, htmgl.Config{Retries: 1})}
}

// Stats returns the lock's commit/abort counters: elisions count as
// hardware commits (CommitsHTM), real acquisitions as global-lock commits
// (CommitsGL).
func (l *ElidedLock) Stats() *tm.Stats { return l.gl.Stats() }

// Kernel returns the underlying HTM-GL system's execution kernel, the one
// attach-and-inspect seam (see exec.Runner).
func (l *ElidedLock) Kernel() *exec.Runner { return l.gl.Kernel() }

// Critical runs body with the atomicity and mutual-exclusion guarantees of
// a lock-protected critical section, eliding the lock when possible.
// thread identifies the hardware context, as in tm.System.Atomic. An
// oversized section capacity-aborts its one trial into the real lock, which
// is exactly HLE.
func (l *ElidedLock) Critical(thread int, body func(x tm.Tx)) {
	l.gl.Atomic(thread, body)
}

// PartHTMLock is the paper's §2 extension: a lock-shaped API whose critical
// sections run through Part-HTM. The speculative trial is Part-HTM's
// (instrumented) fast path — a raw elided transaction would bypass the
// write-locks signature and could observe a partitioned transaction's
// non-visible locations — and a trial that fails for resources becomes a
// partitioned transaction instead of serializing behind the lock. Only
// Part-HTM's own slow path ever excludes everything.
type PartHTMLock struct {
	part *core.System
}

// NewPartHTM creates the Part-HTM-backed elided lock.
func NewPartHTM(part *core.System) *PartHTMLock {
	return &PartHTMLock{part: part}
}

// Critical runs body as one atomic critical section; the commit-path
// breakdown is available from the underlying system's Stats.
func (l *PartHTMLock) Critical(thread int, body func(x tm.Tx)) {
	l.part.Atomic(thread, body)
}
