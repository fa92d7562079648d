package perthread

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type cell struct{ id, gen int }

func TestZeroValueGrowsWithNew(t *testing.T) {
	var s Set[cell]
	if got := s.All(); got != nil {
		t.Fatalf("empty set: All() = %v", got)
	}
	c3 := s.Get(3)
	if c3 == nil || len(s.All()) != 4 {
		t.Fatalf("Get(3): cell %v, %d cells", c3, len(s.All()))
	}
	if s.Get(3) != c3 || s.Get(5) == nil || s.Get(3) != c3 {
		t.Fatal("a cell moved when the set grew")
	}
}

func TestConstructorSeesIndexOncePerCell(t *testing.T) {
	var s Set[cell]
	calls := 0
	s.Init(func(i int) *cell { calls++; return &cell{id: i} })
	s.Get(2)
	s.Get(1)
	s.Get(4)
	if calls != 5 {
		t.Fatalf("constructor ran %d times for 5 cells", calls)
	}
	for i, c := range s.All() {
		if c.id != i {
			t.Fatalf("cell %d built with index %d", i, c.id)
		}
	}
}

// An owner that changes what its constructor reads and then walks All reaches
// every cell built from the old state: a cell All did not return was built
// from the new state, while first touches race the attach.
func TestAttachRacingFirstTouch(t *testing.T) {
	for round := 0; round < 200; round++ {
		var (
			s   Set[cell]
			mu  sync.Mutex
			gen int
		)
		s.Init(func(i int) *cell {
			mu.Lock()
			defer mu.Unlock()
			return &cell{id: i, gen: gen}
		})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.Get(i)
			}(i)
		}
		mu.Lock()
		gen = 1
		mu.Unlock()
		backfilled := len(s.All()) // the owner would update these in place
		wg.Wait()
		for _, c := range s.All()[backfilled:] {
			if c.gen != 1 {
				t.Fatalf("round %d: cell %d was built before the attach and missed by All", round, c.id)
			}
		}
	}
}

// oldChunks is the split the STAMP apps each wrote out before Chunks: the
// bounds Chunks hands out must stay these, or an app's per-thread work and
// its RNG streams move.
func oldChunks(threads, items int) [][3]int {
	var out [][3]int
	chunk := (items + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo, hi := t*chunk, (t+1)*chunk
		if hi > items {
			hi = items
		}
		if lo >= hi {
			continue
		}
		out = append(out, [3]int{t, lo, hi})
	}
	return out
}

func TestChunksVisitsEachIndexOnceByItsOwner(t *testing.T) {
	for _, tc := range []struct{ n, items int }{
		{4, 0},   // nothing to split: no body runs
		{4, 3},   // fewer items than workers: worker 3 gets nothing
		{4, 10},  // uneven: 3, 3, 3, 1
		{3, 9},   // even
		{1, 5},   // one worker takes all
		{8, 17},  // chunk 3: worker 5 gets 2, workers 6 and 7 nothing
		{5, 16},  // chunk 4: worker 4 starts at the end
		{24, 40}, // htm.MaxSlots workers, several idle
	} {
		var (
			mu    sync.Mutex
			calls [][3]int
		)
		visits := make([]atomic.Int32, tc.items)
		owner := make([]atomic.Int32, tc.items)
		Chunks(tc.n, tc.items, func(id, lo, hi int) {
			mu.Lock()
			calls = append(calls, [3]int{id, lo, hi})
			mu.Unlock()
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
				owner[i].Store(int32(id))
			}
		})
		chunk := (tc.items + tc.n - 1) / tc.n
		for i := range visits {
			if v, o := visits[i].Load(), owner[i].Load(); v != 1 || int(o) != i/chunk {
				t.Errorf("Chunks(%d, %d): index %d visited %d times, last by %d; want once, by %d",
					tc.n, tc.items, i, v, o, i/chunk)
			}
		}
		slices.SortFunc(calls, func(a, b [3]int) int { return a[0] - b[0] })
		if want := oldChunks(tc.n, tc.items); !slices.Equal(calls, want) {
			t.Errorf("Chunks(%d, %d) bodies ran on %v, want %v", tc.n, tc.items, calls, want)
		}
	}
}

// Run starts ids 0..n-1 once each, all at once (every body waits at a
// barrier that opens only when all n have arrived), and returns only after
// every body has returned.
func TestRunStartsEachIDOnceAndWaitsForAll(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		var arrived sync.WaitGroup
		arrived.Add(n)
		started := make([]atomic.Int32, n)
		var finished atomic.Int32
		Run(n, func(id int) {
			started[id].Add(1)
			arrived.Done()
			arrived.Wait()
			time.Sleep(time.Millisecond) // a body still running must hold Run
			finished.Add(1)
		})
		if got := finished.Load(); int(got) != n {
			t.Fatalf("Run(%d) returned with %d bodies finished", n, got)
		}
		for id := range started {
			if got := started[id].Load(); got != 1 {
				t.Fatalf("Run(%d): id %d started %d times", n, id, got)
			}
		}
	}
}
