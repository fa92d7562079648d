package core

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

// TestSelfTuningSkipsDoomedFastAttempts: after a transaction that exceeds
// the timer quantum, the fast path must stop being attempted (except for the
// learner's probes), so engine-level timer aborts stop accumulating
// one-per-transaction.
func TestSelfTuningSkipsDoomedFastAttempts(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 500 }, nil)
	a := s.Memory().Alloc(1)
	body := func(x tm.Tx) {
		v := x.Read(a)
		for i := 0; i < 4; i++ {
			x.Work(400)
			x.Pause()
		}
		x.Write(a, v+1)
	}
	const txns = 64
	for i := 0; i < txns; i++ {
		s.Atomic(0, body)
	}
	if got := s.Memory().Load(a); got != txns {
		t.Fatalf("counter = %d", got)
	}
	other := s.Engine().Stats().AbortsOther.Load()
	// Without self-tuning every transaction would burn one timer abort
	// (64); with it only the first plus the probes, ever rarer, do.
	if other > txns/4 {
		t.Fatalf("timer aborts = %d of %d transactions; fast path not being skipped", other, txns)
	}
	if s.Stats().Snapshot().CommitsSW != txns {
		t.Fatalf("stats: %+v", s.Stats().Snapshot())
	}
}

// TestSelfTuningRecoversForSmallTransactions: a thread that ran big
// transactions must return to the fast path when its transactions become
// hardware-sized again.
func TestSelfTuningRecoversForSmallTransactions(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 500 }, nil)
	a := s.Memory().Alloc(1)
	// Phase 1: big transactions make the learner skip the fast attempt.
	for i := 0; i < 8; i++ {
		s.Atomic(0, func(x tm.Tx) {
			v := x.Read(a)
			for k := 0; k < 4; k++ {
				x.Work(400)
				x.Pause()
			}
			x.Write(a, v+1)
		})
	}
	// Phase 2: small transactions. The first may run partitioned, but its
	// single small segment would have fit the fast attempt, so the rest
	// commit in hardware.
	before := s.Stats().Snapshot().CommitsHTM
	for i := 0; i < 16; i++ {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	gained := s.Stats().Snapshot().CommitsHTM - before
	if gained < 15 {
		t.Fatalf("only %d of 16 small transactions used the fast path", gained)
	}
}

// TestAutoPartitionLearnsCycleBudget: a Work-heavy unsplit transaction must
// commit partitioned and teach a cycle budget. Its fast attempt dies on the
// timer, which halves the cycle limit of its partitioned retry; the next
// one skips the fast attempt, and its first segment's timer abort teaches
// the budget every later transaction starts from.
func TestAutoPartitionLearnsCycleBudget(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 1000 }, nil)
	a := s.Memory().Alloc(1)
	body := func(x tm.Tx) {
		v := x.Read(a)
		for i := 0; i < 40; i++ {
			x.Work(100) // 4000 cycles total: 4x the quantum, no Pause hints
		}
		x.Write(a, v+1)
	}
	s.Atomic(0, body)
	if lim := s.threads[0].learn.lim; lim[dimCycles] == 0 {
		t.Fatal("the fast attempt's timer abort gave its retry no cycle limit")
	}
	s.Atomic(0, body)
	if got := s.Memory().Load(a); got != 2 {
		t.Fatalf("a = %d", got)
	}
	st := s.Stats().Snapshot()
	if st.CommitsSW != 2 || st.CommitsGL != 0 {
		t.Fatalf("want partitioned commits, got %+v", st)
	}
	if base := s.threads[0].learn.base; base[dimCycles] == 0 {
		t.Fatal("no cycle budget learned")
	}
}

// TestOpaqueWriteLocalBypassesCells: Part-HTM-O must not lock cells for
// thread-private writes.
func TestOpaqueWriteLocalBypassesCells(t *testing.T) {
	s := newSystem(1, 1<<17, nil, func(c *Config) {
		c.Opaque = true
		c.NoFastPath = true
	})
	m := s.Memory()
	scratch := m.AllocLines(2)
	s.Atomic(0, func(x tm.Tx) {
		x.WriteLocal(scratch, 9)
		x.Pause()
		x.WriteLocal(scratch+1, 10)
	})
	if m.Load(scratch) != 9 || m.Load(scratch+1) != 10 {
		t.Fatal("local writes lost")
	}
	// The shadow cells must never have been locked (no unlock writes
	// needed => cells still zero).
	if m.Load(s.cell(scratch)) != 0 {
		t.Fatal("WriteLocal acquired an address-embedded lock")
	}
}

// TestOpaqueCellsUnlockedAfterCommit: every cell a Part-HTM-O transaction
// locks holds its tag until the transaction ends, and is released after a
// global abort and after the global commit: its tag is no longer its owner's
// entry, and once the transaction has ended the entry is 0.
func TestOpaqueCellsUnlockedAfterCommit(t *testing.T) {
	s := newSystem(1, 1<<18, nil, func(c *Config) {
		c.Opaque = true
		c.NoFastPath = true
	})
	m := s.Memory()
	base := m.AllocLines(4)
	addr := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	cellsHold := func(when string, want uint64) {
		for i := 0; i < 4; i++ {
			if c := m.Load(s.cell(addr(i))); c != want {
				t.Errorf("%s: cell for %d holds %#x, want %#x", when, addr(i), c, want)
			}
		}
	}
	attempt := 0
	s.Atomic(0, func(x tm.Tx) {
		attempt++
		if attempt == 2 {
			for i := 0; i < 4; i++ {
				if err := cellFreeErr(s, addr(i)); err != nil {
					t.Errorf("after the global abort: %v", err)
				}
			}
		}
		for i := 0; i < 4; i++ {
			x.Write(addr(i), uint64(i))
			x.Pause()
		}
		if attempt == 1 {
			cellsHold("before the global abort", s.threads[0].tag)
			panic(globalAbortPanic{})
		}
	})
	if attempt != 2 {
		t.Fatalf("ran the body %d times, want 2 (a global abort, then the commit)", attempt)
	}
	if err := releasedErr(s, addr(0), addr(1), addr(2), addr(3)); err != nil {
		t.Errorf("after the global commit: %v", err)
	}
	for i := 0; i < 4; i++ {
		if got := m.Load(addr(i)); got != uint64(i) {
			t.Errorf("word %d = %d, want %d", i, got, i)
		}
	}
}

// TestOpaqueSelfLockedCellAcrossSegments: a cell locked in a committed
// segment holds this transaction's tag, which is what lets a later segment
// read the location and write it again. A later segment that capacity-aborts
// takes its cell writes with it, so its retry finds those cells free and
// locks them afresh, and every cell is released once the transaction
// commits.
func TestOpaqueSelfLockedCellAcrossSegments(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.WriteLines = 8 }, func(c *Config) {
		c.Opaque = true
		c.NoFastPath = true
	})
	m := s.Memory()
	x0 := m.AllocLines(1)
	// Each write is a data line and a cell line: the segment after the
	// Pause holds x's two and these twelve, over the eight that fit.
	const n = 6
	ys := m.AllocLines(n)
	y := func(i int) mem.Addr { return ys + mem.Addr(i*mem.LineWords) }
	s.Atomic(0, func(x tm.Tx) {
		x.Write(x0, 1)
		x.Pause()
		if v := x.Read(x0); v != 1 {
			t.Errorf("read x = %d after writing 1 in a committed segment", v)
		}
		x.Write(x0, 2)
		for i := 0; i < n; i++ {
			x.Write(y(i), uint64(10+i))
		}
	})
	st := s.Stats().Snapshot()
	if st.CommitsSW != 1 || st.CommitsGL != 0 {
		t.Fatalf("want one partitioned commit, got %+v", st)
	}
	if s.Engine().Stats().AbortsCapacity.Load() == 0 {
		t.Fatal("no segment capacity-aborted: the retry went untested")
	}
	want := map[mem.Addr]uint64{x0: 2}
	for i := 0; i < n; i++ {
		want[y(i)] = uint64(10 + i)
	}
	for a, v := range want {
		if got := m.Load(a); got != v {
			t.Errorf("word %d = %d, want %d", a, got, v)
		}
		if err := releasedErr(s, a); err != nil {
			t.Errorf("after the commit: %v", err)
		}
	}
}

// TestStaleForeignTagDoesNotBlock: a Part-HTM-O cell keeps the tag of the
// attempt that last locked it after that attempt ends, and such a stale tag
// of another thread blocks no one. Thread 0 commits partitioned writes to x
// and y; thread 1 then locks x over thread 0's tag in a partitioned write,
// and reads x (its own stale tag) and y (thread 0's) in a fast attempt that
// checks its cells, because a partitioned transaction parked on other data
// keeps activeTx nonzero. Both commit without an explicit abort.
func TestStaleForeignTagDoesNotBlock(t *testing.T) {
	s := newSystem(3, 1<<17, nil, func(c *Config) { c.Opaque = true })
	m := s.Memory()
	xa, ya, za := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
	attempt := func(id int, body func(tm.Tx)) bool {
		p := s.threads[id]
		return s.partitionedAttempt(p, body)
	}
	if !attempt(0, func(x tm.Tx) {
		x.Write(xa, 1)
		x.Pause()
		x.Write(ya, 2)
	}) {
		t.Fatal("thread 0's partitioned writes did not commit")
	}
	if c := m.Load(s.cell(xa)); c != s.threads[0].tag {
		t.Fatalf("x's cell holds %#x after thread 0's commit, want its stale tag %#x", c, s.threads[0].tag)
	}

	if !attempt(1, func(x tm.Tx) { x.Write(xa, 3) }) {
		t.Fatal("thread 1's partitioned write over thread 0's stale tag did not commit")
	}

	release := parkPartitioned(t, s, 2, za, 4)
	f := s.threads[1]
	var sum uint64
	res := s.fastAttempt(f, func(x tm.Tx) {
		if !f.checkCells {
			t.Error("a fast attempt that began beside a partitioned transaction skips its cells")
		}
		sum = x.Read(xa) + x.Read(ya)
	})
	if !res.Committed {
		t.Fatalf("checked fast read of stale-tagged cells: %+v, want a commit", res)
	}
	if !release() {
		t.Fatal("the parked partitioned attempt did not commit")
	}
	if sum != 5 {
		t.Errorf("fast read x + y = %d, want 5", sum)
	}
	if n := s.Engine().Stats().AbortsExplicit.Load(); n != 0 {
		t.Errorf("%d explicit aborts, want 0", n)
	}
}

// TestFastPathProbesEventually: with self-tuning active, the learner's probe
// keeps trying the fast path so a workload phase change is noticed. After a
// timer abort the first try comes at the eighth idle probe, 32 clean
// commits, where the probe every 32nd transaction it replaces came.
func TestFastPathProbesEventually(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 500 }, nil)
	a := s.Memory().Alloc(1)
	big := bigWork(a)
	aborts := func() uint64 { return s.Engine().Stats().AbortsOther.Load() }
	// formed counts the timer aborts before the first transaction that
	// skipped its fast attempt: the aborts that formed the skip.
	formed := uint64(0)
	for i := 0; i < 40; i++ {
		before := aborts()
		s.Atomic(0, big)
		if formed == 0 && aborts() == before {
			formed = before
		}
	}
	if formed == 0 {
		t.Fatal("no transaction skipped its fast attempt")
	}
	// At least one probe must have happened after the skip formed.
	if got := aborts(); got <= formed {
		t.Fatalf("timer aborts = %d, the %d that formed the skip; probing seems disabled", got, formed)
	}
}

// TestLeadingPauseCountsOneSegment: a partition point commits and counts a
// segment only if one is open. A small transaction that begins with Pause
// runs as exactly one modest sub-HTM transaction, so it would have fit the
// fast attempt, and the next small transaction goes back to the fast path.
func TestLeadingPauseCountsOneSegment(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 500 }, nil)
	a := s.Memory().Alloc(1)
	for i := 0; i < 3; i++ { // the first fast attempt dies on the timer: the skip forms
		s.Atomic(0, func(x tm.Tx) {
			v := x.Read(a)
			for k := 0; k < 4; k++ {
				x.Work(400)
				x.Pause()
			}
			x.Write(a, v+1)
		})
	}
	s.Atomic(0, func(x tm.Tx) {
		x.Pause()
		x.Write(a, x.Read(a)+1)
	})
	if st := s.Stats().Snapshot(); st.CommitsSW != 4 || st.CommitsHTM != 0 {
		t.Fatalf("setup: want four partitioned commits, got %+v", st)
	}
	s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	if st := s.Stats().Snapshot(); st.CommitsHTM != 1 {
		t.Fatalf("the small transaction after a one-segment commit did not use the fast path: %+v", st)
	}
	if got := s.Memory().Load(a); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

// TestOpaqueBudgetCountsLockCells: Part-HTM-O writes a lock cell beside
// every data word, so a sub-HTM transaction holds two hardware lines per
// data line, and the budget learned from a capacity abort is in those
// hardware lines — cells included: under the 16-line buffer it overflowed,
// and above anything the 12 data lines alone could have taught.
func TestOpaqueBudgetCountsLockCells(t *testing.T) {
	const hwLines, dataLines = 16, 12
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.WriteLines = hwLines }, func(c *Config) {
		c.Opaque = true
		c.NoFastPath = true
	})
	m := s.Memory()
	base := m.AllocLines(dataLines)
	s.Atomic(0, func(x tm.Tx) {
		for i := 0; i < dataLines; i++ { // 24 hardware lines, no partition point
			x.Write(base+mem.Addr(i*mem.LineWords), uint64(i)+1)
		}
	})
	for i := 0; i < dataLines; i++ {
		if got := m.Load(base + mem.Addr(i*mem.LineWords)); got != uint64(i)+1 {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	if st := s.Stats().Snapshot(); st.CommitsSW != 1 || st.CommitsGL != 0 {
		t.Fatalf("want one partitioned commit, got %+v", st)
	}
	if got := s.threads[0].learn.base[dimWriteLines]; got >= hwLines || got <= dataLines/2 {
		t.Fatalf("learned write budget = %d lines, want hardware lines: under the %d-line buffer, over the %d a count of data lines would give",
			got, hwLines, dataLines/2)
	}
}

// bigWork is a transaction of four 400-cycle segments and a write: under a
// 500-cycle quantum its fast attempt dies on the timer, and it commits
// partitioned in five segments, so no "would have fit" reset follows.
func bigWork(a mem.Addr) func(tm.Tx) {
	return func(x tm.Tx) {
		v := x.Read(a)
		for k := 0; k < 4; k++ {
			x.Work(400)
			x.Pause()
		}
		x.Write(a, v+1)
	}
}

// TestOneTimerAbortSkipsTheFastPath: a fast attempt that dies on the timer
// has burned a whole quantum, so the thread's next transaction, however
// small, skips its fast attempt.
func TestOneTimerAbortSkipsTheFastPath(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) { c.Quantum = 500 }, nil)
	a := s.Memory().Alloc(1)
	s.Atomic(0, bigWork(a))
	if n := s.Engine().Stats().AbortsOther.Load(); n != 1 {
		t.Fatalf("setup: %d timer aborts, want the big fast attempt's one", n)
	}
	s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	if st := s.Stats().Snapshot(); st.CommitsSW != 2 || st.CommitsHTM != 0 {
		t.Fatalf("the transaction after one timer abort tried the fast path: %+v", st)
	}
}

// TestInjectedTimerAbortCountsAsCapacity: an abort the fault injector forced
// with the timer's reason burned no quantum, so it counts as one of the three
// misses a capacity abort counts as, and the next transaction still tries
// its fast attempt.
func TestInjectedTimerAbortCountsAsCapacity(t *testing.T) {
	s := newSystem(1, 1<<17, nil, nil)
	s.eng.SetInjector(fault.New(fault.Config{Scripts: map[int][]fault.ScriptEvent{
		0: {{Site: fault.SiteHTMBegin, Reason: abort.Other, Count: 1}},
	}}))
	a := s.Memory().Alloc(1)
	s.Atomic(0, bigWork(a)) // the fast attempt's begin is injected; five segments follow
	s.Atomic(0, bigWork(a)) // no timer: the fast attempt commits
	if st := s.Stats().Snapshot(); st.CommitsSW != 1 || st.CommitsHTM != 1 {
		t.Fatalf("want one partitioned commit and then a hardware one, got %+v", st)
	}
}

// TestCapacityAbortsSkipTheFastPathAfterThree: a capacity abort may come
// early in a fast attempt, so it takes three transactions in a row whose
// fast attempts overflow before the thread skips the fast path: after two,
// the third still tries it.
func TestCapacityAbortsSkipTheFastPathAfterThree(t *testing.T) {
	s := newSystem(1, 1<<17, noPlacement(8), nil)
	base := s.Memory().AllocLines(32)
	big := writeLines(base, 16, 4) // 16 lines: over the buffer, four segments
	capacity := func() uint64 { return s.Engine().Stats().AbortsCapacity.Load() }
	for i := 1; i <= 3; i++ {
		s.Atomic(0, big)
		if n := capacity(); n != uint64(i) {
			t.Fatalf("after %d big transactions: %d capacity aborts, want %d (one fast attempt each)", i, n, i)
		}
	}
	s.Atomic(0, func(x tm.Tx) { x.Write(base, x.Read(base)+1) })
	if st := s.Stats().Snapshot(); st.CommitsSW != 4 || st.CommitsHTM != 0 {
		t.Fatalf("the transaction after three capacity aborts tried the fast path: %+v", st)
	}
}
