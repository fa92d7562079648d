// Package hle implements the extension to Hardware Lock Elision the paper
// describes in §2: "applying Part-HTM to HLE's first speculative trial
// before the lock acquisition is a simple extension".
//
// Classic HLE executes the critical section as one hardware transaction
// that subscribes to the lock word; any abort acquires the real lock. That
// is HTM-GL with a single hardware attempt (htmgl.Config{Retries: 1}), so
// it has no type here. A PartHTMLock instead routes the critical section
// through a Part-HTM system — so a section that is merely too big or too
// long for the hardware still runs concurrently as a partitioned
// transaction, and only Part-HTM's slow path ever serializes everything.
package hle

import (
	"repro/internal/core"
	"repro/internal/tm"
)

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
