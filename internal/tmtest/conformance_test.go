package tmtest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
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
