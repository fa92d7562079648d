package htm

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/fault"
	"repro/internal/mem"
)

func newFaultEngine(t *testing.T, fcfg *fault.Config) *Engine {
	t.Helper()
	m := mem.New(1 << 12)
	e := New(m, DefaultConfig())
	if fcfg != nil {
		e.SetInjector(fault.New(*fcfg))
	}
	return e
}

func TestNoInjectorIsInert(t *testing.T) {
	e := newFaultEngine(t, nil)
	for i := 0; i < 100; i++ {
		res := e.Execute(0, func(tx *Txn) {
			tx.Write(8, uint64(i))
			tx.InjectionPoint(fault.SiteRingPub)
			tx.InjectionPoint(fault.SiteLockSigRead)
		})
		if !res.Committed || res.Injected {
			t.Fatalf("iter %d: %+v", i, res)
		}
	}
	if e.Injector() != nil {
		t.Fatal("injector not nil by default")
	}
}

func TestBeginInjectionAbortsFirstOperation(t *testing.T) {
	cfg := fault.Config{Seed: 1}
	cfg.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: 1, Reason: abort.Other}
	e := newFaultEngine(t, &cfg)
	reached := false
	res := e.Execute(0, func(tx *Txn) {
		tx.Read(0) // first transactional op delivers the pending abort
		reached = true
	})
	if res.Committed || res.Reason != abort.Other || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
	if reached {
		t.Fatal("body continued past the injected abort")
	}
	if e.Stats().AbortsOther.Load() != 1 {
		t.Fatal("engine abort counter not bumped")
	}
	// The slot must be reusable after the injected teardown (and with a
	// 100% begin rate, every retry aborts again — nothing ever commits).
	for i := 0; i < 10; i++ {
		if res := e.Execute(0, func(tx *Txn) { tx.Read(0) }); res.Committed {
			t.Fatal("commit under a total begin fault rate")
		}
	}
	if e.Stats().Commits.Load() != 0 {
		t.Fatal("hardware commits under total begin fault rate")
	}
}

func TestBeginInjectionDeliveredAtCommitOfEmptyTxn(t *testing.T) {
	cfg := fault.Config{Seed: 1}
	cfg.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: 1, Reason: abort.Capacity}
	e := newFaultEngine(t, &cfg)
	res := e.Execute(0, func(tx *Txn) {})
	if res.Committed || res.Reason != abort.Capacity || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
}

func TestCommitInjection(t *testing.T) {
	cfg := fault.Config{Seed: 1}
	cfg.Rates[fault.SiteHTMCommit] = fault.SiteRate{Prob: 1, Reason: abort.Conflict}
	e := newFaultEngine(t, &cfg)
	res := e.Execute(0, func(tx *Txn) { tx.Write(8, 7) })
	if res.Committed || res.Reason != abort.Conflict || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
	// The buffered write must have been discarded.
	if got := e.Memory().Load(8); got != 0 {
		t.Fatalf("aborted write leaked: mem[8] = %d", got)
	}
}

func TestScriptedInjectionPointCarriesCode(t *testing.T) {
	cfg := fault.Config{Seed: 1, Scripts: map[int][]fault.ScriptEvent{
		0: {{Site: fault.SiteLockSigRead, Reason: abort.Explicit, Code: 3, Count: 1}},
	}}
	e := newFaultEngine(t, &cfg)
	res := e.Execute(0, func(tx *Txn) {
		tx.InjectionPoint(fault.SiteLockSigRead)
	})
	if res.Committed || res.Reason != abort.Explicit || res.Code != 3 || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
	// Script drained: next attempt commits, with Injected false.
	res = e.Execute(0, func(tx *Txn) {
		tx.InjectionPoint(fault.SiteLockSigRead)
	})
	if !res.Committed || res.Injected {
		t.Fatalf("res = %+v", res)
	}
}

func TestQuantumJitterVariesAbortPoint(t *testing.T) {
	// With a jittered quantum, the same body sometimes survives and
	// sometimes trips the timer, depending on the per-transaction draw.
	ecfg := DefaultConfig()
	ecfg.Quantum = 1000
	m := mem.New(1 << 12)
	e := New(m, ecfg)
	e.SetInjector(fault.New(fault.Config{Seed: 3, QuantumJitter: 0.5}))
	committed, aborted := 0, 0
	for i := 0; i < 200; i++ {
		res := e.Execute(0, func(tx *Txn) { tx.Work(1100) })
		if res.Committed {
			committed++
		} else if res.Reason == abort.Other {
			aborted++
		}
	}
	if committed == 0 || aborted == 0 {
		t.Fatalf("jitter had no effect: %d committed, %d aborted", committed, aborted)
	}
	// Timer aborts from jitter are organic, not injected faults.
	if e.Injector().Stats().Total() != 0 {
		t.Fatal("jitter counted as injected faults")
	}
}

// TestInjectorCoversExactlyTheEngineSlots: the injector and the engine count
// slots with one constant, so a script for the top slot fires there, and one
// for thread MaxSlots, which no transaction can run on, is rejected.
func TestInjectorCoversExactlyTheEngineSlots(t *testing.T) {
	past := fault.Config{Scripts: map[int][]fault.ScriptEvent{MaxSlots: {{Site: fault.SiteHTMBegin, Count: 1}}}}
	if err := past.Validate(); err == nil {
		t.Fatalf("a script for thread %d passed Validate", MaxSlots)
	}
	cfg := fault.Config{Seed: 1, Scripts: map[int][]fault.ScriptEvent{
		MaxSlots - 1: {{Site: fault.SiteHTMBegin, Reason: abort.Capacity, Count: 1}},
	}}
	e := newFaultEngine(t, &cfg)
	res := e.Execute(MaxSlots-1, func(tx *Txn) { tx.Write(8, 1) })
	if res.Committed || !res.Injected || res.Reason != abort.Capacity {
		t.Fatalf("top slot's scripted begin fault: %+v, want an injected capacity abort", res)
	}
}
