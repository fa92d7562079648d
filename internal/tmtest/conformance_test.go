package tmtest

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

func TestCounterStressAllSystems(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(8, 1<<16)
		CounterStress(t, sys, 8, 150)
	})
}

func TestBankStressAllSystems(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(6, 1<<16)
		BankStress(t, sys, 6, 120, 16, false)
	})
}

func TestBankStressWithPartitionPoints(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(6, 1<<16)
		BankStress(t, sys, 6, 120, 16, true)
	})
}

func TestLargeTxStressAllSystems(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(4, 1<<18)
		// 48 lines per transaction: far above the conformance engine's
		// per-set associativity for adjacent lines (sets cycle every 64
		// lines, so 48 adjacent lines spread across 48 sets — raise to
		// overflow the total budget instead via many pauses).
		LargeTxStress(t, sys, 4, 40, 48)
	})
}

func TestLongTxStressAllSystems(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(4, 1<<14)
		LongTxStress(t, sys, 4, 30, 300, 4)
	})
}

// TestBlindWriteStress runs blindWriteStress on every system, on the HTM
// systems over starved hardware, where a Part-HTM-O group of eight words
// spans segments, and on Part-HTM-O with no fast path, where every write is
// a segment's.
func TestBlindWriteStress(t *testing.T) {
	run := func(t *testing.T, fac Factory) {
		blindWriteStress(t, fac.New(4, 1<<16), 4, 400, 3, 8)
	}
	RunAll(t, run)
	for _, fac := range TinyHardwareFactories() {
		t.Run("tiny/"+fac.Name, func(t *testing.T) { run(t, fac) })
	}
	t.Run("Part-HTM-O-no-fast", func(t *testing.T) {
		run(t, Factory{"Part-HTM-O-no-fast", func(n, w int) tm.System {
			return core.New(htm.New(mem.New(2*max(w, 1<<17)), testEngineConfig()), n, core.Config{Opaque: true, NoFastPath: true})
		}})
	})
}

// blindWriteStress checks write isolation for writes that read nothing
// first: each transaction picks one of groups groups of words (a line
// each) and writes one value unique to it to every word of the group, with
// a partition point after each word, so a later segment writes blind to a
// word whose lock another partitioned transaction may hold. Every third
// transaction reads the group first, requires its words equal and then
// writes, as partitioned writers do elsewhere. The invariant: a group's
// words are equal in every committed read and at quiescence.
func blindWriteStress(t *testing.T, sys tm.System, threads, perThread, groups, words int) {
	t.Helper()
	m := sys.Memory()
	base := m.AllocLines(groups * words)
	word := func(g, w int) mem.Addr { return base + mem.Addr((g*words+w)*mem.LineWords) }
	var torn atomic.Bool
	perthread.Run(threads, func(id int) {
		for i := 0; i < perThread; i++ {
			g := (id*7 + i*3) % groups
			u := uint64(id+1)<<32 | uint64(i+1)
			reads := i%3 == 2
			var diverged bool
			sys.Atomic(id, func(x tm.Tx) {
				// Only the committed execution's reads count: a doomed
				// attempt of a non-opaque system may see a torn group.
				diverged = false
				if reads {
					v := x.Read(word(g, 0))
					for w := 1; w < words; w++ {
						if x.Read(word(g, w)) != v {
							diverged = true
						}
					}
				}
				for w := 0; w < words; w++ {
					x.Write(word(g, w), u)
					x.Pause()
				}
			})
			if diverged {
				torn.Store(true)
			}
		}
	})
	if torn.Load() {
		t.Errorf("%s: a committed transaction read a group whose words differ", sys.Name())
	}
	for g := 0; g < groups; g++ {
		for w := 1; w < words; w++ {
			if a, b := m.Load(word(g, 0)), m.Load(word(g, w)); a != b {
				t.Fatalf("%s: group %d word %d = %#x, word 0 = %#x", sys.Name(), g, w, b, a)
			}
		}
	}
}

func TestSingleThreadedSmoke(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(1, 1<<14)
		m := sys.Memory()
		a := m.Alloc(2)
		m.Store(a, 10)
		sys.Atomic(0, func(x tm.Tx) {
			v := x.Read(a)
			x.Write(a+1, v*2)
			x.Pause()
			x.Work(10)
			x.NonTxWork(10)
			x.Write(a, v+1)
			if x.Thread() != 0 {
				t.Errorf("Thread() = %d, want 0", x.Thread())
			}
		})
		if m.Load(a) != 11 || m.Load(a+1) != 20 {
			t.Fatalf("%s: got (%d,%d), want (11,20)", sys.Name(), m.Load(a), m.Load(a+1))
		}
		// One snapshot per check: each accessor call would re-sum the live
		// shards and could disagree with the previous one mid-run.
		if st := sys.Stats().Snapshot(); st.Commits() != 1 {
			t.Fatalf("%s: commits = %d, want 1", sys.Name(), st.Commits())
		}
	})
}

// TestWorkloadPanicPropagates: a panic of the body's own is not an abort.
// It propagates out of Atomic on every system, counts as no commit, leaves
// nothing the body wrote behind, and leaves the thread slot usable. The body
// panics on its first attempt, before any global-lock attempt, which is why
// it can require a == 0: a global-lock path writes in place and keeps what a
// panicking body wrote (tm.System.Atomic).
func TestWorkloadPanicPropagates(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		sys := fac.New(1, 1<<14)
		m := sys.Memory()
		a := m.Alloc(1)
		func() {
			defer func() {
				if r := recover(); r != "bug" {
					t.Fatalf("%s: want the body's panic, got %v", sys.Name(), r)
				}
			}()
			sys.Atomic(0, func(x tm.Tx) {
				x.Write(a, 9)
				panic("bug")
			})
		}()
		if st := sys.Stats().Snapshot(); st.Commits() != 0 {
			t.Fatalf("%s: the panicking call counted as a commit: %+v", sys.Name(), st)
		}
		if got := m.Load(a); got != 0 {
			t.Fatalf("%s: the panicking body's write reached memory: %d", sys.Name(), got)
		}
		sys.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
		if got := m.Load(a); got != 1 {
			t.Fatalf("%s: a = %d after the slot's next transaction, want 1", sys.Name(), got)
		}
		if st := sys.Stats().Snapshot(); st.Commits() != 1 {
			t.Fatalf("%s: commits = %d, want 1", sys.Name(), st.Commits())
		}
	})
}

// TestFittingTransactionAllocatesNothing: a transaction that fits in
// hardware commits on its first attempt without allocating, on Part-HTM,
// Part-HTM-O and the HTM-GL baseline alike, so the comparison charges the
// baseline no cost the algorithm does not have. Part-HTM's partitioned path
// (one Pause, warm buffers) allocates nothing either, and neither does the
// slow case, which reaches the global lock through the aborted attempts of
// work that outlasts the timer quantum: an abort unwinds with a preallocated
// panic value.
func TestFittingTransactionAllocatesNothing(t *testing.T) {
	const quantum = 1000
	slowEngine := testEngineConfig()
	slowEngine.Quantum = quantum
	byName := map[string]Factory{}
	for _, fac := range Factories() {
		byName[fac.Name] = fac
	}
	hw := func(st tm.Snapshot) uint64 { return st.CommitsHTM }
	for _, tc := range []struct {
		name  string
		sys   tm.System
		pause bool  // a partition point halfway
		work  int64 // Work after the accesses
		path  func(tm.Snapshot) uint64
	}{
		{"Part-HTM", byName["Part-HTM"].New(1, 1<<14), false, 0, hw},
		{"Part-HTM-O", byName["Part-HTM-O"].New(1, 1<<14), false, 0, hw},
		{"HTM-GL", byName["HTM-GL"].New(1, 1<<14), false, 0, hw},
		{"Part-HTM-no-fast", byName["Part-HTM-no-fast"].New(1, 1<<14), true, 0, func(st tm.Snapshot) uint64 { return st.CommitsSW }},
		{"Part-HTM slow path", core.New(htm.New(mem.New(1<<17), slowEngine), 1, core.DefaultConfig()), false, 2 * quantum,
			func(st tm.Snapshot) uint64 { return st.CommitsGL }},
	} {
		sys := tc.sys
		a := sys.Memory().AllocLines(20)
		body := func(x tm.Tx) {
			for i := 0; i < 10; i++ {
				if tc.pause && i == 5 {
					x.Pause()
				}
				src, dst := a+mem.Addr(i*mem.LineWords), a+mem.Addr((10+i)*mem.LineWords)
				x.Write(dst, x.Read(src)+1)
			}
			if tc.work > 0 {
				x.Work(tc.work)
			}
		}
		if n := testing.AllocsPerRun(100, func() { sys.Atomic(0, body) }); n != 0 {
			t.Errorf("%s: %v allocations per transaction, want 0", tc.name, n)
		}
		if st := sys.Stats().Snapshot(); tc.path(st) != st.Commits() {
			t.Errorf("%s: %d of %d commits on the path under test: %+v", tc.name, tc.path(st), st.Commits(), st)
		}
	}
}

// TestHardwareSystemsRejectThreadsAboveMaxSlots: a system that runs hardware
// transactions refuses more threads than the engine has contexts when it is
// built, not at the first Begin of a thread past the last slot.
func TestHardwareSystemsRejectThreadsAboveMaxSlots(t *testing.T) {
	RunAll(t, func(t *testing.T, fac Factory) {
		if fac.Name == "NOrec" || fac.Name == "RingSTM" {
			return // software only: no hardware contexts
		}
		fac.New(htm.MaxSlots, 1<<14)
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "hardware contexts") {
				t.Fatalf("building for %d threads panicked with %v, want the hardware-contexts message", htm.MaxSlots+1, r)
			}
		}()
		fac.New(htm.MaxSlots+1, 1<<14)
	})
}
