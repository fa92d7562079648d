package nrmw

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

func smallCfg() Config {
	return Config{ArraySize: 4096, N: 10, M: 10, PartitionEvery: 5}
}

func newPartHTM(words, threads int) tm.System {
	ecfg := htm.DefaultConfig()
	ecfg.ReadEvictProb = 0
	eng := htm.New(mem.New(words), ecfg)
	return core.New(eng, threads, core.DefaultConfig())
}

func newHTMGL(words, threads int) tm.System {
	ecfg := htm.DefaultConfig()
	ecfg.ReadEvictProb = 0
	eng := htm.New(mem.New(words), ecfg)
	return htmgl.New(eng, threads, htmgl.DefaultConfig())
}

func TestConfigsMatchPaper(t *testing.T) {
	a, b, c := Fig3a(), Fig3b(), Fig3c()
	if a.N != 10 || a.M != 10 || a.ArraySize != 100_000 {
		t.Errorf("Fig3a = %+v", a)
	}
	if b.N != 100_000 || b.M != 100 {
		t.Errorf("Fig3b = %+v", b)
	}
	if !c.IterMode || c.N != 100 || c.PartitionEvery != 25 {
		t.Errorf("Fig3c = %+v", c)
	}
}

func TestOpRunsAndWrites(t *testing.T) {
	cfg := smallCfg()
	sys := newPartHTM(cfg.MemWords()+1<<17, 4)
	b := New(sys, 4, cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		b.Op(0, rng)
	}
	if st := sys.Stats().Snapshot(); st.Commits() != 50 {
		t.Fatalf("commits = %d, want 50", st.Commits())
	}
	// At least one destination slot must have been written.
	wrote := false
	m := sys.Memory()
	for i := 0; i < cfg.ArraySize; i++ {
		if m.Load(b.dst+mem.Addr(i)) != 0 {
			wrote = true
			break
		}
	}
	if !wrote {
		t.Fatal("no destination writes observed")
	}
}

func TestIterModeWritesSrcPlusOne(t *testing.T) {
	cfg := Config{ArraySize: 2048, N: 20, IterMode: true, WorkPerIter: 10, PartitionEvery: 5}
	sys := newPartHTM(cfg.MemWords()+1<<17, 2)
	b := New(sys, 2, cfg)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		b.Op(0, rng)
	}
	ok := b.VerifyDst(func(i int, v uint64) bool {
		return v == uint64(i)+2 // src[i] = i+1, dst[i] = src[i]+1
	})
	if !ok {
		t.Fatal("IterMode destination values wrong")
	}
}

func TestDisjointThreadsNoConflictAborts(t *testing.T) {
	cfg := Config{ArraySize: 8192, N: 10, M: 10, PartitionEvery: 0}
	sys := newHTMGL(cfg.MemWords()+1<<16, 4)
	b := New(sys, 4, cfg)
	perthread.Run(4, func(id int) {
		rng := rand.New(rand.NewSource(int64(id)))
		for i := 0; i < 100; i++ {
			b.Op(id, rng)
		}
	})
	st := sys.Stats().Snapshot()
	if st.Commits() != 400 {
		t.Fatalf("commits = %d", st.Commits())
	}
	// Disjoint small transactions on HTM: essentially every commit should
	// be in hardware.
	if st.CommitsHTM < 390 {
		t.Fatalf("hardware commits = %d of 400; disjointness broken?", st.CommitsHTM)
	}
}

func TestBigReadSetFallsBackWithoutPartitioning(t *testing.T) {
	// Read set above the hard budget: HTM-GL must use the lock.
	cfg := Config{ArraySize: 8192, N: 8192, M: 1, PartitionEvery: 0}
	ecfg := htm.DefaultConfig()
	ecfg.ReadLinesSoft = 64
	ecfg.ReadLinesHard = 256
	eng := htm.New(mem.New(cfg.MemWords()+1<<16), ecfg)
	sys := htmgl.New(eng, 1, htmgl.DefaultConfig())
	b := New(sys, 1, cfg)
	b.Op(0, rand.New(rand.NewSource(3)))
	st := sys.Stats().Snapshot()
	if st.CommitsGL != 1 {
		t.Fatalf("want GL commit for oversized read set, got %+v", st)
	}
	if st.AbortsCapacity == 0 {
		t.Fatal("expected capacity aborts")
	}
}

func TestPartitioningKeepsBigReadSetInHardwarePieces(t *testing.T) {
	cfg := Config{ArraySize: 8192, N: 8192, M: 1, PartitionEvery: 256}
	ecfg := htm.DefaultConfig()
	ecfg.ReadLinesSoft = 64
	ecfg.ReadLinesHard = 256
	eng := htm.New(mem.New(cfg.MemWords()+1<<17), ecfg)
	sys := core.New(eng, 1, core.DefaultConfig())
	b := New(sys, 1, cfg)
	b.Op(0, rand.New(rand.NewSource(3)))
	st := sys.Stats().Snapshot()
	if st.CommitsSW != 1 {
		t.Fatalf("want partitioned commit, got %+v", st)
	}
}
