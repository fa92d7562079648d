// Bad cases for htmregion's allocation-free-hook enforcement: any
// function in this package whose doc claims "allocation-free" must not
// allocate, take a sync lock, call into fmt, or re-read the clock — in
// its own body or in any same-package function it calls.
package governor

import (
	"fmt"
	"sync"
	"time"
)

// journal is an (ill-conceived) admission audit trail.
type journal struct {
	mu      sync.Mutex
	entries []int64
}

// note records one admission. Allocation-free.
func (j *journal) note() {
	j.mu.Lock()                                          // want `note takes a lock \(Mutex\.Lock\) but is documented allocation-free`
	j.entries = append(j.entries, time.Now().UnixNano()) // want `note heap-allocates \(append\)` `note reads the clock \(time\.Now\)`
	j.mu.Unlock()                                        // want `note takes a lock \(Mutex\.Unlock\)`
}

// snapshot copies the journal. Its doc makes no fast-path claim, so the
// allocations below are legitimate.
func (j *journal) snapshot() []int64 {
	out := make([]int64, len(j.entries))
	copy(out, j.entries)
	return out
}

// describe renders the in-flight count. Allocation-free.
func describe(n int64) string {
	c := &cell{n: n}                       // want `describe heap-allocates \(&composite literal\)`
	return fmt.Sprintf("inflight=%d", c.n) // want `describe calls fmt\.Sprintf but is documented allocation-free`
}

type cell struct{ n int64 }

// reset clears one breaker cell via a shared helper: the call-graph walk
// holds the helper to the caller's contract. Allocation-free.
func (st *State) reset() {
	scrub(st)
}

func scrub(st *State) {
	st.history = make([]bool, 8) // want `reset heap-allocates \(make\)`
	go func() {                  // want `reset spawns a goroutine`
		st.history[0] = false
	}()
}
