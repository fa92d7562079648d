package hle

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

func newEngine(mut func(*htm.Config)) *htm.Engine {
	cfg := htm.DefaultConfig()
	cfg.Quantum = 0
	cfg.ReadEvictProb = 0
	if mut != nil {
		mut(&cfg)
	}
	return htm.New(mem.New(1<<18), cfg)
}

// TestPartHTMLockAvoidsSerialization: critical sections three times the
// hardware write budget partition instead of serialising. Each thread slot
// rewrites its own 12 lines. One slot at a time, the commit-path split is
// exact. With the four slots running concurrently it is bounded, not exact:
// every sub-HTM pre-commit reads the whole shared write-locks signature, so
// overlapping sections conflict in hardware even on disjoint data and the
// starvation escalator takes the lock for some of them (0-20 of 100 under
// -race on a 2-core host). A third round on shared lines checks atomicity.
func TestPartHTMLockAvoidsSerialization(t *testing.T) {
	eng := newEngine(func(c *htm.Config) {
		c.WriteLines = 4
		c.WriteWays = 64
		c.WriteSets = 1
	})
	part := core.New(eng, 4, core.DefaultConfig())
	l := NewPartHTM(part)
	m := eng.Memory()
	const lines, threads, per = 12, 4, 25
	sections := func(id int, base mem.Addr) {
		for i := 0; i < per; i++ {
			l.Critical(id, func(x tm.Tx) {
				v := x.Read(base)
				for k := 0; k < lines; k++ {
					x.Write(base+mem.Addr(k*mem.LineWords), v+1)
					if k%3 == 2 {
						x.Pause()
					}
				}
			})
		}
	}

	own := m.AllocLines(threads * lines)
	for id := 0; id < threads; id++ {
		sections(id, own+mem.Addr(id*lines*mem.LineWords))
	}
	st := part.Stats().Snapshot()
	if st.CommitsGL != 0 || st.CommitsSW != threads*per || st.AbortsCapacity == 0 {
		t.Fatalf("oversized sections must all partition (want GL=0 SW=%d capacity>0): %+v",
			threads*per, st)
	}

	concurrently := func(base func(id int) mem.Addr) {
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				sections(id, base(id))
			}(w)
		}
		wg.Wait()
	}

	concurrently(func(id int) mem.Addr { return own + mem.Addr(id*lines*mem.LineWords) })
	d := part.Stats().Snapshot().Delta(st)
	if d.Commits() != threads*per || d.CommitsSW == 0 || d.CommitsGL > d.Commits()/4 {
		t.Fatalf("concurrent oversized sections on disjoint lines must mostly partition (want SW>0, GL<=%d of %d): %+v",
			threads*per/4, threads*per, d)
	}
	for k := 0; k < threads*lines; k++ {
		if got := m.Load(own + mem.Addr(k*mem.LineWords)); got != 2*per {
			t.Fatalf("own line %d = %d, want %d", k, got, 2*per)
		}
	}

	shared := m.AllocLines(lines)
	concurrently(func(int) mem.Addr { return shared })
	for k := 0; k < lines; k++ {
		if got := m.Load(shared + mem.Addr(k*mem.LineWords)); got != threads*per {
			t.Fatalf("line %d = %d, want %d (atomicity broken)", k, got, threads*per)
		}
	}
}
