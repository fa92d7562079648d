// Package governor stubs repro/internal/governor for the analyzer tests:
// the breaker API shape the txpure and htmregion testdata call
// into. The hooks here are clean — they double as the good cases for
// htmregion's allocation-free enforcement (no `want` comments on them).
package governor

import (
	"sync"
	"sync/atomic"
)

// Verdict is the admission decision for one transaction.
type Verdict uint8

const (
	Admit Verdict = iota
	Probe
	Serialize
)

// Transition is a circuit-breaker state change observed at Finish.
type Transition uint8

const (
	TransNone Transition = iota
	TransTrip
	TransClose
)

// State is one thread's governor cell.
type State struct {
	active  atomic.Bool
	open    bool
	sawHW   bool
	history []bool
}

// NoteHWAbort records breaker evidence. Allocation-free.
func (st *State) NoteHWAbort() { st.sawHW = true }

// Open reports whether the breaker is open.
func (st *State) Open() bool { return st.open }

// Governor is one system's resource-governance state.
type Governor struct {
	mu     sync.Mutex
	states []*State
}

// New builds a governor.
func New() *Governor { return &Governor{} }

// State returns thread id's cell, growing the set as needed. Not a hot
// hook: it may lock and allocate.
func (g *Governor) State(id int) *State {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.states) <= id {
		g.states = append(g.states, new(State))
	}
	return g.states[id]
}

// Begin admits one transaction. Allocation-free.
func (g *Governor) Begin(st *State) Verdict {
	st.active.Store(true)
	st.sawHW = false
	if st.open {
		return Serialize
	}
	return Admit
}

// Finish closes the transaction's governor scope. Allocation-free.
func (g *Governor) Finish(st *State, path uint8) Transition {
	st.active.Store(false)
	if st.open {
		st.open = false
		return TransClose
	}
	return TransNone
}
