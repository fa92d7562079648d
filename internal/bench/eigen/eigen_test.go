package eigen

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/tm"
)

func newPartHTM(words, threads int) tm.System {
	ecfg := htm.DefaultConfig()
	ecfg.ReadEvictProb = 0
	eng := htm.New(mem.New(words), ecfg)
	return core.New(eng, threads, core.DefaultConfig())
}

func TestConfigsMatchPaper(t *testing.T) {
	a := Fig6a()
	if a.HotWords != 1024 || a.Reads != 50 || a.Writes != 5 || a.LongFraction != 50 || !a.Disjoint {
		t.Errorf("Fig6a = %+v", a)
	}
	b := Fig6b()
	if b.HotWords != 32*1024 || b.Reads != 10_000 || b.Writes != 100 || b.RepeatPercent != 50 || b.Disjoint {
		t.Errorf("Fig6b = %+v", b)
	}
}

func TestOpCommits(t *testing.T) {
	cfg := Config{HotWords: 1024, Reads: 20, Writes: 5, LongFraction: 50,
		NonTxWorkPerOp: 10, Disjoint: true, PartitionEvery: 8}
	sys := newPartHTM(cfg.MemWords()+1<<17, 2)
	b := New(sys, 2, cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		b.Op(0, rng)
	}
	if st := sys.Stats().Snapshot(); st.Commits() != 40 {
		t.Fatalf("commits = %d", st.Commits())
	}
}

func TestRepeatedAccessesStayInRange(t *testing.T) {
	cfg := Config{HotWords: 256, Reads: 50, Writes: 10, RepeatPercent: 90, PartitionEvery: 16}
	sys := newPartHTM(cfg.MemWords()+1<<17, 1)
	b := New(sys, 1, cfg)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		b.Op(0, rng) // panics on out-of-range access; completing is the assertion
	}
}

func TestContendedCounterStaysConsistent(t *testing.T) {
	// With a tiny contended array every transaction conflicts; commits must
	// still be exact.
	cfg := Config{HotWords: 8, Reads: 2, Writes: 2, Disjoint: false}
	sys := newPartHTM(cfg.MemWords()+1<<17, 4)
	b := New(sys, 4, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 100; i++ {
				b.Op(id, rng)
			}
		}(w)
	}
	wg.Wait()
	if got := sys.Stats().Commits(); got != 400 {
		t.Fatalf("commits = %d, want 400", got)
	}
}

func TestLongTransactionsPreferPartitionedPathOverGL(t *testing.T) {
	// Long transactions exceed the quantum in one piece; Part-HTM should
	// commit them on the partitioned path, HTM-GL under the lock.
	cfg := Config{HotWords: 1024, Reads: 20, Writes: 5, LongFraction: 100,
		NonTxWorkPerOp: 100, Disjoint: true, PartitionEvery: 6}
	mkEng := func() *htm.Engine {
		ecfg := htm.DefaultConfig()
		ecfg.ReadEvictProb = 0
		ecfg.Quantum = 800
		return htm.New(mem.New(cfg.MemWords()+1<<17), ecfg)
	}
	p := core.New(mkEng(), 1, core.DefaultConfig())
	bp := New(p, 1, cfg)
	g := htmgl.New(mkEng(), 1, htmgl.DefaultConfig())
	bg := New(g, 1, cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		bp.Op(0, rng)
		bg.Op(0, rng)
	}
	if sw := p.Stats().Snapshot().CommitsSW; sw == 0 {
		t.Fatalf("Part-HTM never used the partitioned path: %+v", p.Stats().Snapshot())
	}
	if gl := g.Stats().Snapshot().CommitsGL; gl == 0 {
		t.Fatalf("HTM-GL never fell back to the lock: %+v", g.Stats().Snapshot())
	}
}
