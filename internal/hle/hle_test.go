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

func TestElisionForSmallSections(t *testing.T) {
	eng := newEngine(nil)
	l := New(eng)
	a := eng.Memory().Alloc(1)
	for i := 0; i < 50; i++ {
		l.Critical(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	if got := eng.Memory().Load(a); got != 50 {
		t.Fatalf("counter = %d", got)
	}
	if st := l.Stats().Snapshot(); st.CommitsHTM != 50 || st.CommitsGL != 0 {
		t.Fatalf("elisions=%d acquisitions=%d", st.CommitsHTM, st.CommitsGL)
	}
}

func TestAcquisitionForOversizedSections(t *testing.T) {
	eng := newEngine(func(c *htm.Config) {
		c.WriteLines = 2
		c.WriteWays = 64
		c.WriteSets = 1
	})
	l := New(eng)
	base := eng.Memory().AllocLines(4)
	l.Critical(0, func(x tm.Tx) {
		for i := 0; i < 4; i++ {
			x.Write(base+mem.Addr(i*mem.LineWords), 9)
		}
	})
	if st := l.Stats().Snapshot(); st.CommitsGL != 1 || st.CommitsHTM != 0 || st.AbortsCapacity != 1 {
		t.Fatalf("oversized section must acquire the lock after exactly one capacity-aborted trial: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if got := eng.Memory().Load(base + mem.Addr(i*mem.LineWords)); got != 9 {
			t.Fatalf("line %d = %d", i, got)
		}
	}
}

func TestElisionConcurrentCounter(t *testing.T) {
	eng := newEngine(nil)
	l := New(eng)
	a := eng.Memory().Alloc(1)
	var wg sync.WaitGroup
	const per = 300
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Critical(id, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
			}
		}(w)
	}
	wg.Wait()
	if got := eng.Memory().Load(a); got != 4*per {
		t.Fatalf("counter = %d, want %d", got, 4*per)
	}
	if st := l.Stats().Snapshot(); st.CommitsHTM+st.CommitsGL != 4*per || st.CommitsSW != 0 {
		t.Fatalf("every section is an elision or an acquisition: %+v", st)
	}
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

func TestWorkloadPanicPropagatesFromElision(t *testing.T) {
	eng := newEngine(nil)
	l := New(eng)
	a := eng.Memory().Alloc(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic lost")
			}
		}()
		l.Critical(0, func(x tm.Tx) { panic("bug") })
	}()
	// The engine slot must still be usable, and the panicking section
	// counted as neither an elision nor an acquisition.
	l.Critical(0, func(x tm.Tx) { x.Write(a, 1) })
	if eng.Memory().Load(a) != 1 {
		t.Fatal("lock unusable after panic")
	}
	if st := l.Stats().Snapshot(); st.CommitsHTM != 1 || st.CommitsGL != 0 {
		t.Fatalf("after a body panic and one small section: %+v", st)
	}
}
