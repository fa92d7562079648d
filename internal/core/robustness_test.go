package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

// newFaultSystem builds a Part-HTM system under retry schedule pol over a
// deterministic engine with the given fault injector installed.
func newFaultSystem(threads int, fcfg *fault.Config, noFast bool, pol exec.Policy) *System {
	ecfg := htm.DefaultConfig()
	ecfg.Quantum = 0
	ecfg.ReadEvictProb = 0
	cfg := DefaultConfig()
	cfg.NoFastPath = noFast
	eng := htm.New(mem.New(1<<17), ecfg)
	if fcfg != nil {
		eng.SetInjector(fault.New(*fcfg))
	}
	return newWith(eng, threads, cfg, pol)
}

// TestStormRetryBudgetBoundsAborts runs transactions under a total
// hardware-abort storm (every hardware begin fails — a timer-interrupt
// burst that never ends) and checks two things: every transaction still
// commits, and the retry budget caps the hardware aborts burned per
// transaction. The seed's bare retry schedule commits too, but burns the
// full fast x sub x partitioned retry schedule on every transaction —
// it cannot satisfy the per-transaction bound this test asserts.
func TestStormRetryBudgetBoundsAborts(t *testing.T) {
	const txns = 8
	storm := func() *fault.Config {
		cfg := &fault.Config{Seed: 1}
		cfg.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: 1, Reason: abort.Other}
		return cfg
	}
	run := func(s *System) (abortsPerTxn float64) {
		a := s.Memory().Alloc(1)
		for i := 0; i < txns; i++ {
			s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
		}
		if got := s.Memory().Load(a); got != txns {
			t.Fatalf("counter = %d, want %d (lost commits under storm)", got, txns)
		}
		return float64(s.Engine().Stats().Aborts()) / txns
	}

	const budget = 6
	pol := schedule
	pol.MaxBackoff = 0
	pol.RetryBudget = budget
	cm := newFaultSystem(1, storm(), true, pol)
	cmAborts := run(cm)
	st := cm.Stats().Snapshot()
	if st.EscalationsBudget != txns {
		t.Fatalf("EscalationsBudget = %d, want %d (every transaction must escalate)", st.EscalationsBudget, txns)
	}
	if st.CommitsGL != txns {
		t.Fatalf("CommitsGL = %d, want %d", st.CommitsGL, txns)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("FaultsInjected = 0 under a total storm")
	}

	// The seed's bare retry schedule: no budget, no starvation escalation.
	pol.RetryBudget, pol.StarveThreshold = 0, 0
	seed := newFaultSystem(1, storm(), true, pol)
	seedAborts := run(seed)

	// The bound the budget guarantees: at most RetryBudget aborts plus the
	// tail of the partitioned attempt that exhausted it.
	bound := float64(budget + subRetries + 1)
	if cmAborts > bound {
		t.Fatalf("budgeted policy burned %.1f aborts/txn, want <= %.1f", cmAborts, bound)
	}
	// The seed policy exceeds that bound by construction: this is the
	// assertion that fails on the seed retry loops.
	if seedAborts <= bound {
		t.Fatalf("seed policy burned only %.1f aborts/txn (<= %.1f): the budget adds nothing", seedAborts, bound)
	}
	ss := seed.Stats().Snapshot()
	if ss.Escalations() != 0 {
		t.Fatalf("seed policy recorded contention-manager activity: %+v", ss)
	}
}

// TestMutualInvalidationNoLivelock scripts two partitioned transactions to
// invalidate each other's every sub-HTM commit (the injected explicit abort
// carries codeLockConflict, so each commit attempt becomes a global abort —
// the Alistarh-style mutual-kill pattern). Both must commit, each escalating
// on its own starvation score.
func TestMutualInvalidationNoLivelock(t *testing.T) {
	fcfg := &fault.Config{Seed: 1, Scripts: map[int][]fault.ScriptEvent{
		0: {{Site: fault.SiteHTMCommit, Reason: abort.Explicit, Code: codeLockConflict, Count: 1000}},
		1: {{Site: fault.SiteHTMCommit, Reason: abort.Explicit, Code: codeLockConflict, Count: 1000}},
	}}
	pol := schedule
	pol.StarveThreshold = 2
	pol.MaxBackoff = 10 * time.Microsecond
	s := newFaultSystem(2, fcfg, true, pol)
	m := s.Memory()
	a, b := m.AllocLines(1), m.AllocLines(1)
	first := s.Stats().Shard(0)

	done := make(chan int, 2)
	go func() {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(b)+1) })
		done <- 0
	}()
	// The first transaction runs alone until it has escalated; only then
	// is the second one released.
	deadline := time.After(30 * time.Second)
	for first.EscalationsStarve.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first transaction never escalated (livelock?)")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	go func() {
		s.Atomic(1, func(x tm.Tx) { x.Write(b, x.Read(a)+1) })
		done <- 1
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("a mutually-invalidating transaction never committed")
		}
	}

	st := s.Stats().Snapshot()
	if st.Commits() != 2 {
		t.Fatalf("commits = %d, want 2", st.Commits())
	}
	if st.EscalationsStarve < 2 {
		t.Fatalf("EscalationsStarve = %d, want both transactions to escalate", st.EscalationsStarve)
	}
}

// TestSlowPathPanicReleasesLock: a body that panics on the slow path leaves
// the global lock free for later transactions. A scripted abort at the fast
// attempt's first access spends a retry budget of 1, so the body first runs
// on the slow path.
func TestSlowPathPanicReleasesLock(t *testing.T) {
	fcfg := &fault.Config{Seed: 1, Scripts: map[int][]fault.ScriptEvent{
		0: {{Site: fault.SiteHTMBegin, Reason: abort.Conflict, Count: 1}},
	}}
	pol := schedule
	pol.RetryBudget = 1
	s := newFaultSystem(1, fcfg, false, pol)
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
	if st := s.Stats().Snapshot(); st.EscalationsBudget != 1 || st.Commits() != 0 {
		t.Fatalf("want one budget escalation and no commit, got %+v", st)
	}
	if g := m.Load(s.glock); g != 0 {
		t.Fatalf("global lock = %d after the slow path's panic, want 0", g)
	}
	// The slow path writes in place: what it wrote before the panic stays.
	before := m.Load(a)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	if got := m.Load(a); got != before+1 {
		t.Fatalf("a = %d after the next transaction, want %d", got, before+1)
	}
}

// TestCountersZeroWithoutInjector: the whole robustness layer is
// pay-for-use — an uninjected run must leave every new counter at zero.
func TestCountersZeroWithoutInjector(t *testing.T) {
	s := newFaultSystem(2, nil, false, schedule)
	a := s.Memory().Alloc(1)
	var wg sync.WaitGroup
	for th := 0; th < 2; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Atomic(th, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
			}
		}(th)
	}
	wg.Wait()
	st := s.Stats().Snapshot()
	if st.FaultsInjected != 0 {
		t.Fatalf("FaultsInjected = %d without an injector", st.FaultsInjected)
	}
	if got := s.Memory().Load(a); got != 400 {
		t.Fatalf("counter = %d", got)
	}
}

// TestScheduleIsTheLedgers: the benchmark module's exec.run_empty*_ns rows
// time the kernel under a field-by-field copy of Part-HTM's schedule
// (benchmark/ledger.go, addExec). The copy is repeated here so that a change
// to the schedule fails until the ledger prices the same policy again. The
// ledger still sets the deprecated, ignored DegradeThreshold and
// LemmingWaitSpins, which the schedule leaves zero, so the comparison zeroes
// them.
func TestScheduleIsTheLedgers(t *testing.T) {
	ledger := exec.Policy{
		FastAttempts: 5, StopFastOnResource: true, MidAttempts: 5, GateMid: true,
		Backoff: true, MaxBackoff: 100 * time.Microsecond, RetryBudget: 24,
		StarveThreshold: 3, LemmingWaitSpins: 4096, DegradeThreshold: 12,
	}
	ledger.DegradeThreshold, ledger.LemmingWaitSpins = 0, 0
	if schedule != ledger {
		t.Fatalf("Part-HTM's schedule %+v is not the one the ledger times, %+v", schedule, ledger)
	}
}
