package htmgl

import (
	"sync"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/fault"
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
	return htm.New(mem.New(1<<16), cfg)
}

func newSys(mut func(*htm.Config)) *System { return New(newEngine(mut), 4, DefaultConfig()) }

// newHLE builds Hardware Lock Elision: one hardware trial subscribed to the
// lock word, then the lock itself.
func newHLE(mut func(*htm.Config)) *System { return New(newEngine(mut), 4, Config{Retries: 1}) }

func TestSmallTxCommitsInHardware(t *testing.T) {
	s := newSys(nil)
	a := s.Memory().Alloc(1)
	for i := 0; i < 20; i++ {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	st := s.Stats().Snapshot()
	if st.CommitsHTM != 20 || st.CommitsGL != 0 {
		t.Fatalf("want 20 hardware commits, got %+v", st)
	}
}

func TestCapacityFallsToGlobalLock(t *testing.T) {
	s := newSys(func(c *htm.Config) {
		c.WriteLines = 4
		c.WriteWays = 64
		c.WriteSets = 1
	})
	m := s.Memory()
	base := m.AllocLines(8)
	s.Atomic(0, func(x tm.Tx) {
		for l := 0; l < 8; l++ {
			x.Write(base+mem.Addr(l*mem.LineWords), uint64(l))
		}
	})
	st := s.Stats().Snapshot()
	if st.CommitsGL != 1 {
		t.Fatalf("want global-lock commit, got %+v", st)
	}
	if st.AbortsCapacity == 0 {
		t.Fatal("expected capacity aborts before the fallback")
	}
	// Capacity aborts should not be retried 5 times pointlessly? HTM-GL
	// retries blindly — that is its documented weakness; all 5 attempts
	// abort for capacity.
	if st.AbortsCapacity != 5 {
		t.Fatalf("want 5 capacity aborts (blind retries), got %d", st.AbortsCapacity)
	}
}

func TestTimerQuantumFallsToGlobalLock(t *testing.T) {
	s := newSys(func(c *htm.Config) { c.Quantum = 100 })
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		x.NonTxWork(500) // HTM-GL cannot take non-transactional work out
		x.Write(a, 1)
	})
	st := s.Stats().Snapshot()
	if st.CommitsGL != 1 || st.AbortsOther != 5 {
		t.Fatalf("want GL commit after 5 timer aborts, got %+v", st)
	}
}

func TestGlobalLockSerializesWithHardware(t *testing.T) {
	// While one transaction runs under the global lock, hardware attempts
	// must abort (lock subscription) and not commit mid-critical-section.
	// Force thread 0 onto the GL path by exceeding capacity, and have it
	// hold the critical section while we probe.
	inCS := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sCap := newSys(func(c *htm.Config) { c.WriteLines = 1; c.WriteWays = 1; c.WriteSets = 1 })
	mCap := sCap.Memory()
	aa := mCap.AllocLines(1)
	bb := mCap.AllocLines(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sCap.Atomic(0, func(x tm.Tx) {
			x.Write(aa, 1)
			x.Write(bb, 1) // 2 lines > capacity: ends up on GL path
			once.Do(func() {
				close(inCS)
				<-release
			})
		})
	}()
	<-inCS
	done := make(chan struct{})
	go func() {
		sCap.Atomic(1, func(x tm.Tx) { x.Write(aa, 7) })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("hardware transaction committed inside the global-lock critical section")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()
	<-done
	if got := mCap.Load(aa); got != 7 {
		t.Fatalf("aa = %d, want 7", got)
	}
}

func TestPauseIsNoOp(t *testing.T) {
	s := newSys(nil)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		x.Write(a, 1)
		x.Pause()
		x.Write(a, 2)
	})
	if s.Stats().Snapshot().CommitsHTM != 1 {
		t.Fatal("Pause must not affect HTM-GL")
	}
	if got := s.Memory().Load(a); got != 2 {
		t.Fatalf("a = %d", got)
	}
}

func TestHLEElidesSmallSections(t *testing.T) {
	s := newHLE(nil)
	a := s.Memory().Alloc(1)
	for i := 0; i < 50; i++ {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	if got := s.Memory().Load(a); got != 50 {
		t.Fatalf("counter = %d", got)
	}
	if st := s.Stats().Snapshot(); st.CommitsHTM != 50 || st.CommitsGL != 0 {
		t.Fatalf("elisions=%d acquisitions=%d", st.CommitsHTM, st.CommitsGL)
	}
}

func TestHLEAcquiresForOversizedSections(t *testing.T) {
	s := newHLE(func(c *htm.Config) {
		c.WriteLines = 2
		c.WriteWays = 64
		c.WriteSets = 1
	})
	m := s.Memory()
	base := m.AllocLines(4)
	s.Atomic(0, func(x tm.Tx) {
		for i := 0; i < 4; i++ {
			x.Write(base+mem.Addr(i*mem.LineWords), 9)
		}
	})
	if st := s.Stats().Snapshot(); st.CommitsGL != 1 || st.CommitsHTM != 0 || st.AbortsCapacity != 1 {
		t.Fatalf("oversized section must acquire the lock after exactly one capacity-aborted trial: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if got := m.Load(base + mem.Addr(i*mem.LineWords)); got != 9 {
			t.Fatalf("line %d = %d", i, got)
		}
	}
}

func TestHLEConcurrentCounter(t *testing.T) {
	s := newHLE(nil)
	a := s.Memory().Alloc(1)
	var wg sync.WaitGroup
	const per = 300
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Atomic(id, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
			}
		}(w)
	}
	wg.Wait()
	if got := s.Memory().Load(a); got != 4*per {
		t.Fatalf("counter = %d, want %d", got, 4*per)
	}
	if st := s.Stats().Snapshot(); st.CommitsHTM+st.CommitsGL != 4*per || st.CommitsSW != 0 {
		t.Fatalf("every section is an elision or an acquisition: %+v", st)
	}
}

// TestSlowPathPanicReleasesLock: a body that panics under the global lock
// leaves the lock free for later transactions. A scripted abort at the one
// hardware trial's first access sends the body's first run to the lock.
func TestSlowPathPanicReleasesLock(t *testing.T) {
	eng := newEngine(nil)
	eng.SetInjector(fault.New(fault.Config{Seed: 1, Scripts: map[int][]fault.ScriptEvent{
		0: {{Site: fault.SiteHTMBegin, Reason: abort.Conflict, Count: 1}},
	}}))
	s := New(eng, 1, Config{Retries: 1})
	m := s.Memory()
	a := m.Alloc(1)
	func() {
		defer func() {
			if r := recover(); r != "bug" {
				t.Fatalf("want the body's panic, got %v", r)
			}
		}()
		s.Atomic(0, func(x tm.Tx) {
			x.Write(a, 9)
			panic("bug")
		})
	}()
	if st := s.Stats().Snapshot(); st.AbortsConflict != 1 || st.Commits() != 0 {
		t.Fatalf("want one conflict abort and no commit, got %+v", st)
	}
	if g := m.Load(s.glock); g != 0 {
		t.Fatalf("global lock = %d after the panic under it, want 0", g)
	}
	// The lock path writes in place: what it wrote before the panic stays.
	before := m.Load(a)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	if got := m.Load(a); got != before+1 {
		t.Fatalf("a = %d after the next transaction, want %d", got, before+1)
	}
}
