package tmtest

import (
	"testing"

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
// nothing the body wrote behind, and leaves the thread slot usable.
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
