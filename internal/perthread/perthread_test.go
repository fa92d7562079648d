package perthread

import (
	"sync"
	"testing"
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
