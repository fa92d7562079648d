// Package perthread holds what is kept or started once per thread.
//
// Set is the one copy-on-grow set of per-thread cells that the stats
// shards, kernel threads, trace buffers, latency shards and profiler shards
// are all kept in: a thread's cell is created on its first
// touch and never moves, so its owner caches the pointer and the measured
// path takes no lock.
//
// Run and Chunks are the one way the workloads, experiments, stress tests
// and examples start their worker threads: worker id is the thread id its
// body passes to tm.System.Atomic, and both return only after every worker
// has.
package perthread

import (
	"sync"
	"sync/atomic"
)

// Set is a set of *T indexed by thread. The zero value is an empty set whose
// cells are new(T).
type Set[T any] struct {
	mu    sync.Mutex // held while the set grows
	cells atomic.Pointer[[]*T]
	mk    func(i int) *T
}

// Init sets the constructor of cell i (nil, the zero value's, is new(T)).
// Call it before the first Get. The constructor runs with the set's mutex
// held and must not call the set; one that reads state its owner can change
// later takes the owner's mutex around that read.
func (s *Set[T]) Init(mk func(i int) *T) { s.mk = mk }

// Get returns cell i, growing the set through i on the first touch. After
// that it is one atomic load.
func (s *Set[T]) Get(i int) *T {
	if p := s.cells.Load(); p != nil && i < len(*p) {
		return (*p)[i]
	}
	return s.grow(i)
}

func (s *Set[T]) grow(i int) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []*T
	if p := s.cells.Load(); p != nil {
		cur = *p
	}
	if i < len(cur) {
		return cur[i]
	}
	next := make([]*T, i+1)
	copy(next, cur)
	for j := len(cur); j < len(next); j++ {
		if s.mk != nil {
			next[j] = s.mk(j)
		} else {
			next[j] = new(T)
		}
	}
	s.cells.Store(&next)
	return next[i]
}

// All returns the cells created so far, in thread order; the slice must not
// be modified. It waits for a growth in progress: an owner that changes what
// its constructor reads (under its own mutex, released before this call) and
// then walks All reaches every cell built from the old state, and every cell
// built later sees the new.
func (s *Set[T]) All() []*T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.cells.Load(); p != nil {
		return *p
	}
	return nil
}

// Run starts n workers, worker id running body(id) for id in [0, n), and
// returns when all of them have returned.
func Run(n int, body func(id int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for id := 0; id < n; id++ {
		go func() {
			defer wg.Done()
			body(id)
		}()
	}
	wg.Wait()
}

// Chunks splits [0, items) among n workers in runs of (items+n-1)/n: worker
// id gets [id*chunk, (id+1)*chunk) cut at items, and runs body(id, lo, hi)
// unless its range is empty. It returns when every worker has returned.
func Chunks(n, items int, body func(id, lo, hi int)) {
	chunk := (items + n - 1) / n
	Run(n, func(id int) {
		if lo, hi := id*chunk, min((id+1)*chunk, items); lo < hi {
			body(id, lo, hi)
		}
	})
}
