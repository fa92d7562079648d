package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

// newSystem builds a Part-HTM system over a fresh memory with a
// deterministic engine (no timer, no probabilistic evictions) unless the
// engine config is mutated.
func newSystem(threads int, words int, mutEng func(*htm.Config), mutCfg func(*Config)) *System {
	return newScheduled(threads, words, mutEng, mutCfg, schedule)
}

// newScheduled is newSystem under retry schedule pol.
func newScheduled(threads int, words int, mutEng func(*htm.Config), mutCfg func(*Config), pol exec.Policy) *System {
	ecfg := htm.DefaultConfig()
	ecfg.Quantum = 0
	ecfg.ReadEvictProb = 0
	if mutEng != nil {
		mutEng(&ecfg)
	}
	cfg := DefaultConfig()
	if mutCfg != nil {
		mutCfg(&cfg)
	}
	if cfg.Opaque {
		words *= 2
	}
	eng := htm.New(mem.New(words), ecfg)
	return newWith(eng, threads, cfg, pol)
}

// oneMidAttempt is the package schedule with a single partitioned attempt
// before the global lock.
func oneMidAttempt() exec.Policy {
	pol := schedule
	pol.MidAttempts = 1
	return pol
}

// releasedErr checks that no Part-HTM-O lock cell of the addresses counts as
// held once every attempt has ended: each thread's owner entry is 0, and a
// cell that keeps the tag of the attempt that locked it no longer equals its
// owner's entry. The owner is decoded from the cell's own bits.
func releasedErr(s *System, as ...mem.Addr) error {
	m := s.Memory()
	for id := range s.threads {
		if e := m.Load(s.ownerEntry(id)); e != 0 {
			return fmt.Errorf("thread %d's owner entry holds %#x after its attempt ended", id, e)
		}
	}
	for _, a := range as {
		if err := cellFreeErr(s, a); err != nil {
			return err
		}
	}
	return nil
}

// cellFreeErr checks that a's lock cell, if it holds a tag, holds one that
// differs from its owner's entry.
func cellFreeErr(s *System, a mem.Addr) error {
	m := s.Memory()
	c := m.Load(s.cell(a))
	if c&1 == 0 {
		return nil
	}
	owner := int(c>>1&tagOwnerMask) - 1
	if e := m.Load(s.ownerEntry(owner)); e == c {
		return fmt.Errorf("cell for %d holds %#x, still thread %d's entry", a, c, owner)
	}
	return nil
}

func TestNames(t *testing.T) {
	if got := newSystem(1, 1<<17, nil, nil).Name(); got != "Part-HTM" {
		t.Errorf("Name = %q", got)
	}
	if got := newSystem(1, 1<<17, nil, func(c *Config) { c.NoFastPath = true }).Name(); got != "Part-HTM-no-fast" {
		t.Errorf("Name = %q", got)
	}
	if got := newSystem(1, 1<<17, nil, func(c *Config) { c.Opaque = true }).Name(); got != "Part-HTM-O" {
		t.Errorf("Name = %q", got)
	}
}

func TestFastPathUsedForSmallTransactions(t *testing.T) {
	s := newSystem(1, 1<<17, nil, nil)
	a := s.Memory().Alloc(1)
	for i := 0; i < 50; i++ {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	st := s.Stats().Snapshot()
	if st.CommitsHTM != 50 || st.CommitsSW != 0 || st.CommitsGL != 0 {
		t.Fatalf("want all 50 commits on the fast path, got %+v", st)
	}
	if got := s.Memory().Load(a); got != 50 {
		t.Fatalf("counter = %d", got)
	}
}

func TestCapacityFailureFallsToPartitionedPath(t *testing.T) {
	// 10-line write budget: a 12-line transaction (plus its ring-entry
	// metadata) cannot commit in hardware, but 3-line segments plus their
	// write-locks-signature updates (up to 4 more lines) can.
	s := newSystem(1, 1<<17, func(c *htm.Config) {
		c.WriteLines = 10
		c.WriteWays = 64
		c.WriteSets = 1
	}, nil)
	m := s.Memory()
	base := m.AllocLines(12)
	s.Atomic(0, func(x tm.Tx) {
		for l := 0; l < 12; l++ {
			x.Write(base+mem.Addr(l*mem.LineWords), uint64(l+1))
			if l%3 == 2 {
				x.Pause()
			}
		}
	})
	st := s.Stats().Snapshot()
	if st.CommitsSW != 1 || st.CommitsHTM != 0 || st.CommitsGL != 0 {
		t.Fatalf("want 1 partitioned commit, got %+v", st)
	}
	if st.AbortsCapacity == 0 {
		t.Fatal("expected a capacity abort from the fast attempt")
	}
	for l := 0; l < 12; l++ {
		if got := m.Load(base + mem.Addr(l*mem.LineWords)); got != uint64(l+1) {
			t.Fatalf("line %d = %d", l, got)
		}
	}
}

func TestTimerFailureFallsToPartitionedPath(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) {
		c.Quantum = 1000
	}, nil)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		v := x.Read(a)
		for i := 0; i < 4; i++ {
			x.Work(400) // 1600 > quantum as one transaction; 400 fits per segment
			x.Pause()
		}
		x.Write(a, v+1)
	})
	st := s.Stats().Snapshot()
	if st.CommitsSW != 1 {
		t.Fatalf("want partitioned commit after timer abort, got %+v", st)
	}
	if st.AbortsOther == 0 {
		t.Fatal("expected an Other (timer) abort from the fast attempt")
	}
	if got := s.Memory().Load(a); got != 1 {
		t.Fatalf("a = %d", got)
	}
}

func TestSegmentTooBigEscalatesToSlowPath(t *testing.T) {
	// One Work call twice the timer quantum: no partition point, explicit
	// or learned, can split it, so the single segment keeps dying on the
	// timer and the transaction ends up on the global-lock path.
	s := newSystem(1, 1<<17, func(c *htm.Config) {
		c.Quantum = 1000
	}, nil)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		v := x.Read(a)
		x.Work(2000)
		x.Write(a, v+1)
	})
	st := s.Stats().Snapshot()
	if st.CommitsGL != 1 || st.CommitsSW != 0 || st.CommitsHTM != 0 {
		t.Fatalf("want one global-lock commit, got %+v", st)
	}
	if got := s.Memory().Load(a); got != 1 {
		t.Fatalf("a = %d", got)
	}
}

func TestAutoPartitionRescuesUnsplitTransaction(t *testing.T) {
	// Same oversized transaction, no Pause hints — the run-time breaking
	// points (paper §3) must learn a budget and commit it on the
	// partitioned path instead of the global lock.
	s := newSystem(1, 1<<17, func(c *htm.Config) {
		c.WriteLines = 4
		c.WriteWays = 64
		c.WriteSets = 1
	}, nil)
	m := s.Memory()
	base := m.AllocLines(12)
	for round := 0; round < 3; round++ {
		s.Atomic(0, func(x tm.Tx) {
			for l := 0; l < 12; l++ {
				x.Write(base+mem.Addr(l*mem.LineWords), uint64(round+1))
			}
		})
	}
	st := s.Stats().Snapshot()
	if st.CommitsGL != 0 || st.CommitsSW != 3 {
		t.Fatalf("want 3 partitioned commits and no GL, got %+v", st)
	}
	lim := s.threads[0].learn.base
	if lim[dimWriteLines] == 0 {
		t.Fatal("no write-line budget was learned")
	}
	for l := 0; l < 12; l++ {
		if got := m.Load(base + mem.Addr(l*mem.LineWords)); got != 3 {
			t.Fatalf("line %d = %d", l, got)
		}
	}
}

// TestInFlightValidationAndUndo reproduces the paper's §5.3.6 scenario: a
// partitioned transaction whose first segment's read is invalidated by a
// concurrent commit must abort, roll back its published writes, and retry
// with the new value.
func TestInFlightValidationAndUndo(t *testing.T) {
	s := newSystem(2, 1<<17, nil, func(c *Config) { c.NoFastPath = true })
	m := s.Memory()
	x0 := m.AllocLines(1) // target
	y0 := m.AllocLines(1) // flag read by A, written by B
	m.Store(x0, 1)

	var once sync.Once
	bStart := make(chan struct{})
	bDone := make(chan struct{})
	go func() {
		<-bStart
		s.Atomic(1, func(x tm.Tx) { x.Write(y0, 7) })
		close(bDone)
	}()

	s.Atomic(0, func(x tm.Tx) {
		v := x.Read(y0)
		x.Pause() // commit segment 1: v is now part of the validated snapshot
		if v == 0 {
			// First attempt only (v is replayed identically within an
			// attempt, and the retry reads 7): let B commit y.
			once.Do(func() {
				close(bStart)
				<-bDone
			})
		}
		x.Write(x0, v+10)
	})

	if got := m.Load(x0); got != 17 {
		t.Fatalf("x = %d, want 17 (transaction must retry with B's value)", got)
	}
	if got := m.Load(y0); got != 7 {
		t.Fatalf("y = %d, want 7", got)
	}
	st := s.Stats().Snapshot()
	if st.CommitsSW != 2 {
		t.Fatalf("want 2 partitioned commits, got %+v", st)
	}
}

// TestLockedLocationBlocksOtherWriters: while a partitioned transaction
// holds a write lock (committed sub-HTM, uncommitted global), no other
// transaction may commit a conflicting write; after the holder commits, the
// other proceeds and serializes after it.
//
// B either reads x first or writes it blind. A blind writer meets the lock
// through its Write alone (in Part-HTM-O, the check of the cell it
// overwrote, at its sub-commit), where a reader's Read would have caught it
// first. In Part-HTM-O the cell keeps A's tag throughout: B's buffered tag
// dies with B's aborted sub-HTM transaction. Afterwards the cell keeps B's
// tag, released by B's entry.
func TestLockedLocationBlocksOtherWriters(t *testing.T) {
	writers := []struct {
		name string
		body func(x tm.Tx, a mem.Addr)
		want uint64 // x after A then B
	}{
		{"reads first", func(x tm.Tx, a mem.Addr) { x.Write(a, x.Read(a)*100) }, 200},
		{"blind write", func(x tm.Tx, a mem.Addr) { x.Write(a, 7) }, 7},
	}
	for _, opaque := range []bool{false, true} {
		name := "Part-HTM"
		if opaque {
			name = "Part-HTM-O"
		}
		t.Run(name, func(t *testing.T) {
			for _, b := range writers {
				t.Run(b.name, func(t *testing.T) {
					s := newSystem(2, 1<<17, nil, func(c *Config) {
						c.NoFastPath = true
						c.Opaque = opaque
					})
					m := s.Memory()
					x0 := m.AllocLines(1)
					m.Store(x0, 1)

					var once sync.Once
					locked := make(chan struct{})
					release := make(chan struct{})
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						s.Atomic(0, func(x tm.Tx) {
							v := x.Read(x0)
							x.Write(x0, v+1) // becomes 2 when this sub commits
							x.Pause()        // sub commits: x is now locked, globally uncommitted
							if v == 1 {
								once.Do(func() {
									close(locked)
									<-release
								})
							}
						})
					}()

					<-locked
					bDone := make(chan struct{})
					go func() {
						s.Atomic(1, func(x tm.Tx) { b.body(x, x0) })
						close(bDone)
					}()
					select {
					case <-bDone:
						t.Fatal("writer committed while the location was locked")
					case <-time.After(50 * time.Millisecond):
					}
					if opaque {
						if c, tag := m.Load(s.cell(x0)), s.threads[0].tag; c != tag {
							t.Errorf("cell holds %#x while A is parked, want A's tag %#x", c, tag)
						}
					}
					close(release)
					wg.Wait()
					<-bDone
					if got := m.Load(x0); got != b.want {
						t.Fatalf("x = %d, want %d (A then B)", got, b.want)
					}
					if opaque {
						if err := releasedErr(s, x0); err != nil {
							t.Errorf("after both commits: %v", err)
						}
					}
				})
			}
		})
	}
}

// TestWrittenCellCheckedAtSubCommit: a Part-HTM-O segment checks the cell
// of a word it wrote at its sub-commit, not at the write. A writes x and y
// blind and parks inside its segment, before its Pause; B then locks both
// cells by committing a segment that writes x and y, and parks holding them.
// B's writes doom A's segment, and every retry of it, which writes x alone,
// overwrites x's cell without a conflict and must meet B's tag there at its
// sub-commit: A commits only after B releases. y, which of A's segments only
// the doomed one wrote, keeps B's value.
func TestWrittenCellCheckedAtSubCommit(t *testing.T) {
	s := newSystem(2, 1<<17, nil, func(c *Config) {
		c.NoFastPath = true
		c.Opaque = true
	})
	m := s.Memory()
	x := m.AllocLines(1)
	y := m.AllocLines(1)
	m.Store(x, 1)
	m.Store(y, 1)

	var aRuns atomic.Int32
	aParked, aGo := make(chan struct{}), make(chan struct{})
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		s.Atomic(0, func(tx tm.Tx) {
			tx.Write(x, 7)
			if aRuns.Add(1) == 1 {
				tx.Write(y, 9)
				close(aParked)
				<-aGo
			}
			tx.Pause()
		})
	}()
	<-aParked

	var once sync.Once
	bLocked, bGo := make(chan struct{}), make(chan struct{})
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		s.Atomic(1, func(tx tm.Tx) {
			tx.Write(x, 20)
			tx.Write(y, 40)
			tx.Pause()
			once.Do(func() {
				close(bLocked)
				<-bGo
			})
		})
	}()
	<-bLocked
	close(aGo)
	for aRuns.Load() < 2 {
		runtime.Gosched()
	}
	select {
	case <-aDone:
		t.Fatal("A committed while B held x's cell")
	case <-time.After(50 * time.Millisecond):
	}
	if c, tag := m.Load(s.cell(x)), s.threads[1].tag; c != tag {
		t.Errorf("x's cell holds %#x while B is parked, want B's tag %#x", c, tag)
	}
	close(bGo)
	<-bDone
	<-aDone
	if gx, gy := m.Load(x), m.Load(y); gx != 7 || gy != 40 {
		t.Fatalf("x = %d, y = %d; want 7 (B then A) and B's 40", gx, gy)
	}
	if err := releasedErr(s, x, y); err != nil {
		t.Errorf("after both commits: %v", err)
	}
}

// TestOpacityNoLockedReads: Part-HTM-O must never let any execution —
// committed or doomed — observe the value of a locked (non-visible)
// location. Part-HTM (non-opaque) explicitly allows such doomed reads.
//
// A parks with x locked; B then runs every attempt it has (fast ones too
// when the fast path is on, checked because A is active) until it is left
// waiting on the slow path, which A's commit alone lets in.
func TestOpacityNoLockedReads(t *testing.T) {
	for _, fast := range []bool{false, true} {
		name := "NoFastPath"
		if fast {
			name = "FastPath"
		}
		t.Run(name, func(t *testing.T) {
			s := newSystem(2, 1<<17, nil, func(c *Config) {
				c.NoFastPath = !fast
				c.Opaque = true
			})
			m := s.Memory()
			x0 := m.AllocLines(1)
			m.Store(x0, 1)
			// x=99 is in memory but locked and globally uncommitted.
			release := parkPartitioned(t, s, 0, x0, 99)

			var mu sync.Mutex
			var observed []uint64
			windowOpen := true
			bDone := make(chan struct{})
			go func() {
				s.Atomic(1, func(x tm.Tx) {
					v := x.Read(x0)
					mu.Lock()
					if windowOpen {
						observed = append(observed, v)
					}
					mu.Unlock()
				})
				close(bDone)
			}()
			committed := false
			for !committed && m.Load(s.glock) == 0 {
				select {
				case <-bDone:
					committed = true
				default:
					runtime.Gosched()
				}
			}
			mu.Lock()
			windowOpen = false
			for _, v := range observed {
				if v == 99 {
					t.Error("Part-HTM-O execution observed a locked (non-visible) value")
				}
			}
			mu.Unlock()
			if committed {
				t.Fatal("B committed while x was locked")
			}
			if !release() {
				t.Fatal("A did not commit")
			}
			<-bDone
			if got := m.Load(x0); got != 99 {
				t.Fatalf("x = %d, want 99", got)
			}
		})
	}
}

// TestNonOpaqueAllowsDoomedLockedReads documents the anomaly Part-HTM
// accepts (and Part-HTM-O removes): a doomed execution may observe a locked
// location's value.
func TestNonOpaqueAllowsDoomedLockedReads(t *testing.T) {
	s := newSystem(2, 1<<17, nil, func(c *Config) { c.NoFastPath = true })
	m := s.Memory()
	x0 := m.AllocLines(1)
	m.Store(x0, 1)

	var once sync.Once
	locked := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Atomic(0, func(x tm.Tx) {
			v := x.Read(x0)
			x.Write(x0, 99)
			x.Pause()
			if v == 1 {
				once.Do(func() {
					close(locked)
					<-release
				})
			}
		})
	}()

	<-locked
	var mu sync.Mutex
	sawLocked := false
	windowOpen := true
	bDone := make(chan struct{})
	go func() {
		s.Atomic(1, func(x tm.Tx) {
			v := x.Read(x0)
			mu.Lock()
			if windowOpen && v == 99 {
				sawLocked = true
			}
			mu.Unlock()
		})
		close(bDone)
	}()
	// Give B time to run a few doomed attempts against the locked value.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		mu.Lock()
		if sawLocked {
			mu.Unlock()
			break
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	windowOpen = false
	got := sawLocked
	mu.Unlock()
	close(release)
	wg.Wait()
	<-bDone
	if !got {
		t.Skip("doomed attempt did not observe the locked value in time (scheduling)")
	}
}

// TestLockConflictEventuallySlowPath: with partition retries exhausted by a
// persistently locked location, the transaction must complete via the
// global-lock path rather than spin forever.
func TestSlowPathWaitsForActivePartitioned(t *testing.T) {
	s := newScheduled(2, 1<<17, nil, func(c *Config) { c.NoFastPath = true }, oneMidAttempt())
	m := s.Memory()
	x0 := m.AllocLines(1)

	var once sync.Once
	locked := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Atomic(0, func(x tm.Tx) {
			v := x.Read(x0)
			x.Write(x0, v+1)
			x.Pause()
			once.Do(func() {
				close(locked)
				<-release
			})
		})
	}()
	<-locked

	bDone := make(chan struct{})
	go func() {
		s.Atomic(1, func(x tm.Tx) { x.Write(x0, x.Read(x0)+10) })
		close(bDone)
	}()
	// B exhausts its single partitioned retry and heads for the slow path,
	// where it must wait for A (active_tx handshake) instead of committing.
	select {
	case <-bDone:
		t.Fatal("B committed while A was active and holding the lock")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()
	<-bDone
	if got := m.Load(x0); got != 11 {
		t.Fatalf("x = %d, want 11", got)
	}
	if s.Stats().Snapshot().CommitsGL == 0 {
		t.Fatal("expected B to commit on the slow path")
	}
}

// TestReadOnlyPartitionedCommit: read-only global transactions skip the
// ring publication but still validate.
func TestReadOnlyPartitionedCommit(t *testing.T) {
	s := newSystem(1, 1<<17, nil, func(c *Config) { c.NoFastPath = true })
	m := s.Memory()
	a := m.Alloc(2)
	m.Store(a, 5)
	m.Store(a+1, 6)
	var sum uint64
	s.Atomic(0, func(x tm.Tx) {
		sum = x.Read(a)
		x.Pause()
		sum += x.Read(a + 1)
	})
	if sum != 11 {
		t.Fatalf("sum = %d, want 11", sum)
	}
	if ts := s.doms.Ring(0).Timestamp(); ts != 0 {
		t.Fatalf("read-only transaction advanced the timestamp to %d", ts)
	}
}

// TestNoFastPathSkipsHardwareFastAttempts verifies the Part-HTM-no-fast
// variant goes straight to the partitioned path, also when a governor is
// attached: a breaker probe, which runs the fast level of a thread whose
// breaker is open, finds none to run. A transaction over the quantum ends at
// the global lock and trips the one-transaction breaker; the small ones after
// it include its probes.
func TestNoFastPathSkipsHardwareFastAttempts(t *testing.T) {
	s := newSystem(1, 1<<17, nil, func(c *Config) { c.NoFastPath = true })
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
	st := s.Stats().Snapshot()
	if st.CommitsHTM != 0 || st.CommitsSW != 1 {
		t.Fatalf("want a single partitioned commit, got %+v", st)
	}

	s = newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 1000 }, func(c *Config) { c.NoFastPath = true })
	s.Kernel().SetGovernor(governor.New(governor.Config{BreakerThreshold: 1}))
	a = s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		x.Write(a, x.Read(a)+1)
		x.Work(2000) // one segment's worth of work, over the quantum
	})
	for i := 0; i < 40; i++ {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	st = s.Stats().Snapshot()
	if st.BreakerTrips == 0 || st.BreakerProbes == 0 {
		t.Fatalf("setup: the breaker never tripped or probed: %+v", st)
	}
	if st.CommitsHTM != 0 {
		t.Fatalf("Part-HTM-no-fast committed %d transactions on the fast path: %+v", st.CommitsHTM, st)
	}
}

// TestWorkloadPanicPropagates: a panic in the body must escape Atomic (on
// any path) without corrupting the system for later transactions. A body
// that panics on the partitioned path after a committed segment leaves that
// path as a global abort does: the segment's write is undone and activeTx is
// 0 again, so the slow path, which waits for it, can run.
func TestWorkloadPanicPropagates(t *testing.T) {
	for _, tc := range []struct{ noFast, opaque, segment bool }{
		{false, false, false},
		{true, false, false},
		{true, false, true},
		{true, true, true},
	} {
		s := newSystem(1, 1<<17, nil, func(c *Config) { c.NoFastPath, c.Opaque = tc.noFast, tc.opaque })
		m := s.Memory()
		a := m.Alloc(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate")
				}
			}()
			s.Atomic(0, func(x tm.Tx) {
				if tc.segment {
					x.Write(a, 8)
					x.Pause()
				} else {
					x.Read(a)
				}
				panic("workload bug")
			})
		}()
		if n := m.Load(s.activeTx); n != 0 {
			t.Fatalf("%s %+v: activeTx = %d after the panic, want 0", s.Name(), tc, n)
		}
		if got := m.Load(a); got != 0 {
			t.Fatalf("%s %+v: a = %d after the panic, want 0 restored", s.Name(), tc, got)
		}
		s.slowAttempt(s.threads[0], func(x tm.Tx) { x.Write(a, 2) })
		// The system must still work afterwards.
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
		if got := m.Load(a); got != 3 {
			t.Fatalf("%s %+v: a = %d after recovery, want 3", s.Name(), tc, got)
		}
	}
}

// TestUndoAcrossSegmentsRewritingOneWord: a word written in two segments
// (and twice within the second) logs, per write, memory's value before that
// write's segment: the original, then the first segment's committed value
// twice, since a rewrite within one segment logs memory's pre-segment value,
// not the buffered one. A global abort, undoing newest first, restores the
// original.
func TestUndoAcrossSegmentsRewritingOneWord(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		name := "Part-HTM"
		if opaque {
			name = "Part-HTM-O"
		}
		t.Run(name, func(t *testing.T) {
			s := newSystem(1, 1<<17, nil, func(c *Config) {
				c.NoFastPath = true
				c.Opaque = opaque
			})
			m := s.Memory()
			a := m.AllocLines(1)
			m.Store(a, 100)
			var seen []uint64
			s.Atomic(0, func(x tm.Tx) {
				seen = append(seen, x.Read(a))
				x.Write(a, 101)
				x.Pause()
				x.Write(a, 102)
				x.Write(a, 103)
				x.Pause()
				if len(seen) == 1 {
					if got := m.Load(a); got != 103 {
						t.Errorf("a = %d after two committed segments, want 103", got)
					}
					panic(globalAbortPanic{})
				}
			})
			if len(seen) != 2 || seen[0] != 100 || seen[1] != 100 {
				t.Fatalf("attempts began with a = %v, want [100 100]: the global abort must restore the original", seen)
			}
			if got := m.Load(a); got != 103 {
				t.Fatalf("a = %d after the retry, want 103", got)
			}
		})
	}
}

// TestUndoSeesStoresBeforeSubCommit: a partitioned write logs the word it
// replaces as memory holds it at the segment's commit, so a store that lands
// before then is what a global abort restores.
//
//   - doomed: a non-transactional store to a word the live segment wrote
//     dooms the segment; the retried segment commits, and a forced global
//     abort restores the stored value, not the one before the store. A word
//     only the doomed segment wrote keeps what is stored to it later: the
//     doomed segment's undo records went with it.
//   - parked: a store that lands while the write waits for its line (the
//     test holds the line lock, as a store in progress does) dooms nothing,
//     and the global abort restores it too.
func TestUndoSeesStoresBeforeSubCommit(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		name := "Part-HTM"
		if opaque {
			name = "Part-HTM-O"
		}
		build := func() (*System, *mem.Memory, mem.Addr) {
			s := newSystem(1, 1<<17, nil, func(c *Config) {
				c.NoFastPath = true
				c.Opaque = opaque
			})
			m := s.Memory()
			a := m.AllocLines(1)
			m.Store(a, 100)
			return s, m, a
		}
		t.Run(name+"/doomed", func(t *testing.T) {
			s, m, a := build()
			b := m.AllocLines(1)
			m.Store(b, 100)
			var seen []uint64
			s.Atomic(0, func(x tm.Tx) {
				seen = append(seen, x.Read(a))
				switch len(seen) {
				case 1:
					x.Write(b, 1)
					x.Write(a, 101)
					m.Store(a, 200) // dooms the segment, which holds a's line
				case 2:
					x.Write(a, 101)
				default:
					x.Write(a, 102)
					return
				}
				x.Pause()
				if got := m.Load(a); got != 101 {
					t.Errorf("a = %d after the retried segment committed, want 101", got)
				}
				m.Store(b, 300)
				panic(globalAbortPanic{})
			})
			if len(seen) != 3 || seen[0] != 100 || seen[1] != 200 || seen[2] != 200 {
				t.Fatalf("attempts read a = %v, want [100 200 200]: the global abort must restore the stored 200", seen)
			}
			if got := m.Load(a); got != 102 {
				t.Fatalf("a = %d after the commit, want 102", got)
			}
			if got := m.Load(b); got != 300 {
				t.Fatalf("b = %d, want the 300 stored after its only writer's segment died", got)
			}
		})
		t.Run(name+"/parked", func(t *testing.T) {
			s, m, a := build()
			l := mem.LineOf(a)
			held := m.Lock(l)
			runs, after := 0, uint64(0)
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Atomic(0, func(x tm.Tx) {
					if runs++; runs > 1 {
						after = x.Read(a) // the first read would wait for the line
					}
					x.Write(a, 101) // the first attempt waits here for the line
					x.Pause()
					if runs == 1 {
						panic(globalAbortPanic{})
					}
				})
			}()
			for !lockWaiterIn("htm.(*Txn).ensureWriteMonitor") {
				time.Sleep(time.Millisecond)
			}
			// What a non-transactional Store does under the line lock.
			mon, _ := s.Engine().NonTxWrite(l, held)
			m.RawStore(a, 200)
			m.Unlock(l, mon)
			<-done
			if runs != 2 || after != 200 {
				t.Fatalf("%d runs, the retry read a = %d; want 2 and the stored 200, which the global abort must restore", runs, after)
			}
			if got := m.Load(a); got != 101 {
				t.Fatalf("a = %d after the commit, want 101", got)
			}
		})
	}
}

// TestUndoRestoresExactValues: a global abort after several committed
// segments must restore every written word to its pre-transaction value.
// Forced via a lock conflict with a concurrent holder.
func TestUndoRestoresExactValues(t *testing.T) {
	s := newScheduled(2, 1<<18, nil, func(c *Config) { c.NoFastPath = true }, oneMidAttempt())
	m := s.Memory()
	// A's data: 8 lines it will write across two segments.
	aBase := m.AllocLines(8)
	for i := 0; i < 8; i++ {
		m.Store(aBase+mem.Addr(i*mem.LineWords), uint64(100+i))
	}
	// The contested word B locks.
	contested := m.AllocLines(1)

	var once sync.Once
	locked := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Atomic(1, func(x tm.Tx) {
			v := x.Read(contested)
			x.Write(contested, v+1)
			x.Pause()
			once.Do(func() {
				close(locked)
				<-release
			})
		})
	}()
	<-locked

	// A writes its 8 lines in two committed segments, then touches the
	// contested (locked) word: lock conflict => global abort => retries
	// once => slow path (waits for B). While A is stuck we can't observe;
	// instead verify after completion that the final state reflects a
	// consistent serial order.
	aDone := make(chan struct{})
	go func() {
		s.Atomic(0, func(x tm.Tx) {
			for i := 0; i < 8; i++ {
				old := x.Read(aBase + mem.Addr(i*mem.LineWords))
				x.Write(aBase+mem.Addr(i*mem.LineWords), old+1000)
				if i == 3 {
					x.Pause()
				}
			}
			x.Write(contested, x.Read(contested)+100)
		})
		close(aDone)
	}()
	// Let A hit the lock and globally abort at least once; its first four
	// lines were published by a committed sub-HTM and must be rolled back.
	time.Sleep(50 * time.Millisecond)
	// B still holds the lock; A cannot have committed.
	for i := 0; i < 8; i++ {
		got := m.Load(aBase + mem.Addr(i*mem.LineWords))
		want := uint64(100 + i)
		if got != want && got != want+1000 {
			t.Fatalf("line %d = %d: neither original nor final value (torn undo)", i, got)
		}
	}
	close(release)
	wg.Wait()
	<-aDone
	for i := 0; i < 8; i++ {
		got := m.Load(aBase + mem.Addr(i*mem.LineWords))
		if got != uint64(1100+i) {
			t.Fatalf("final line %d = %d, want %d", i, got, 1100+i)
		}
	}
	if got := m.Load(contested); got != 101 {
		t.Fatalf("contested = %d, want 101", got)
	}
}

// TestReplayDeterminism: many sub-HTM retries against a hot counter still
// produce exact counts (replay must serve identical values).
func TestReplayDeterminism(t *testing.T) {
	s := newSystem(4, 1<<18, nil, func(c *Config) { c.NoFastPath = true })
	m := s.Memory()
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	var wg sync.WaitGroup
	const per = 150
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Atomic(id, func(x tm.Tx) {
					va := x.Read(a)
					x.Pause()
					vb := x.Read(b)
					x.Pause()
					x.Write(a, va+1)
					x.Pause()
					x.Write(b, vb+1)
				})
			}
		}(w)
	}
	wg.Wait()
	if m.Load(a) != 4*per || m.Load(b) != 4*per {
		t.Fatalf("a=%d b=%d, want %d", m.Load(a), m.Load(b), 4*per)
	}
}

// TestPartHTMLockAvoidsSerialization is the paper's §2 lock-elision use:
// Atomic as the critical section of a lock-shaped API. Sections three times
// the hardware write budget partition instead of serialising. Each thread slot
// rewrites its own 12 lines. One slot at a time, the commit-path split is
// exact. With the four slots running concurrently it is bounded, not exact:
// every sub-HTM pre-commit reads the whole shared write-locks signature, so
// overlapping sections conflict in hardware even on disjoint data and the
// starvation escalator takes the lock for some of them (0-20 of 100 under
// -race on a 2-core host). A third round on shared lines checks atomicity.
func TestPartHTMLockAvoidsSerialization(t *testing.T) {
	part := newSystem(4, 1<<18, func(c *htm.Config) {
		c.WriteLines = 4
		c.WriteWays = 64
		c.WriteSets = 1
	}, nil)
	m := part.Memory()
	const lines, threads, per = 12, 4, 25
	sections := func(id int, base mem.Addr) {
		for i := 0; i < per; i++ {
			part.Atomic(id, func(x tm.Tx) {
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
