package list

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/tm"
)

func newPartHTM(words, threads int) tm.System {
	ecfg := htm.DefaultConfig()
	ecfg.ReadEvictProb = 0
	eng := htm.New(mem.New(words), ecfg)
	return core.New(eng, threads, core.DefaultConfig())
}

func TestPopulateSortedAndSized(t *testing.T) {
	cfg := Config{Size: 200, WritePercent: 50}
	sys := newPartHTM(cfg.MemWords()+1<<17, 1)
	l := New(sys, cfg)
	if !l.Validate() {
		t.Fatal("initial list invalid")
	}
	if l.Len() != 200 {
		t.Fatalf("initial length = %d", l.Len())
	}
}

func TestContainsInsertRemove(t *testing.T) {
	cfg := Config{Size: 50, KeyRange: 1000, WritePercent: 50}
	sys := newPartHTM(cfg.MemWords()+1<<17, 1)
	l := New(sys, cfg)
	keys := l.Snapshot()
	present := int(keys[len(keys)/2])
	if !l.Contains(0, present) {
		t.Fatal("Contains missed a present key")
	}
	// Find an absent key.
	absent := -1
	onList := make(map[uint64]bool)
	for _, k := range keys {
		onList[k] = true
	}
	for k := 0; k < cfg.KeyRange; k++ {
		if !onList[uint64(k)] {
			absent = k
			break
		}
	}
	if l.Contains(0, absent) {
		t.Fatal("Contains found an absent key")
	}
	if !l.Insert(0, absent) {
		t.Fatal("Insert of absent key failed")
	}
	if l.Insert(0, absent) {
		t.Fatal("duplicate Insert succeeded")
	}
	if !l.Contains(0, absent) {
		t.Fatal("inserted key not found")
	}
	if !l.Remove(0, absent) {
		t.Fatal("Remove failed")
	}
	if l.Remove(0, absent) {
		t.Fatal("Remove of absent key succeeded")
	}
	if !l.Validate() {
		t.Fatal("list invalid after ops")
	}
}

func TestInsertAtHeadAndTail(t *testing.T) {
	cfg := Config{Size: 10, KeyRange: 100, WritePercent: 0, Capacity: 64}
	sys := newPartHTM(cfg.MemWords()+1<<17, 1)
	l := New(sys, cfg)
	keys := l.Snapshot()
	lo, hi := keys[0], keys[len(keys)-1]
	if lo > 0 {
		if !l.Insert(0, int(lo-1)) {
			t.Fatal("head insert failed")
		}
	}
	if !l.Insert(0, int(hi+1)) {
		t.Fatal("tail insert failed")
	}
	if !l.Validate() {
		t.Fatal("invalid after boundary inserts")
	}
	if got := l.Snapshot()[0]; lo > 0 && got != lo-1 {
		t.Fatalf("head = %d, want %d", got, lo-1)
	}
}

func TestRemoveHead(t *testing.T) {
	cfg := Config{Size: 10, KeyRange: 100, WritePercent: 0, Capacity: 64}
	sys := newPartHTM(cfg.MemWords()+1<<17, 1)
	l := New(sys, cfg)
	head := int(l.Snapshot()[0])
	if !l.Remove(0, head) {
		t.Fatal("head removal failed")
	}
	if l.Contains(0, head) {
		t.Fatal("removed head still present")
	}
	if !l.Validate() {
		t.Fatal("invalid after head removal")
	}
}

// concurrentStress hammers the list from several threads and checks the
// structural invariant afterwards.
func concurrentStress(t *testing.T, sys tm.System, cfg Config, threads, ops int) {
	t.Helper()
	l := New(sys, cfg)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			for i := 0; i < ops; i++ {
				l.Op(id, rng)
			}
		}(w)
	}
	wg.Wait()
	if !l.Validate() {
		t.Fatalf("%s: list structure corrupted", sys.Name())
	}
}

func TestConcurrentStressPartHTM(t *testing.T) {
	cfg := Config{Size: 300, WritePercent: 50, PartitionEvery: 64, Capacity: 4096}
	concurrentStress(t, newPartHTM(cfg.MemWords()+1<<18, 4), cfg, 4, 150)
}

func TestConcurrentStressHTMGL(t *testing.T) {
	cfg := Config{Size: 300, WritePercent: 50, PartitionEvery: 64, Capacity: 4096}
	ecfg := htm.DefaultConfig()
	ecfg.ReadEvictProb = 0
	eng := htm.New(mem.New(cfg.MemWords()+1<<18), ecfg)
	concurrentStress(t, htmgl.New(eng, 4, htmgl.DefaultConfig()), cfg, 4, 150)
}

func TestConcurrentStressNOrec(t *testing.T) {
	cfg := Config{Size: 300, WritePercent: 50, Capacity: 4096}
	concurrentStress(t, norec.New(mem.New(cfg.MemWords()+1<<18), 4), cfg, 4, 150)
}

func TestPoolExhaustionPanics(t *testing.T) {
	cfg := Config{Size: 4, KeyRange: 1000, Capacity: 5}
	sys := newPartHTM(cfg.MemWords()+1<<17, 1)
	l := New(sys, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected pool-exhaustion panic")
		}
	}()
	for k := 0; k < 100; k++ {
		l.Insert(0, 500+k)
	}
}
