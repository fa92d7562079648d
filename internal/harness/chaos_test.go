package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// TestAbortStorm subjects every engine-backed system to a permanent
// hardware-abort storm — every hardware begin fails, as if timer interrupts
// never stopped firing — and requires that each one still commits every
// transaction through its software fallback: no hangs, no livelock, and of
// course no hardware commits.
func TestAbortStorm(t *testing.T) {
	const threads, txnsPerThread = 2, 25
	for _, name := range chaosSystems {
		t.Run(name, func(t *testing.T) {
			storm := &fault.Config{Seed: 1}
			storm.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: 1, Reason: fault.Other}
			sys := Build(name, BuildOptions{
				DataWords: 1 << 12, Threads: threads, PhysCores: 4, Seed: 1,
				Fault: storm,
			})
			a := sys.Memory().Alloc(1)
			perthread.Run(threads, func(th int) {
				for i := 0; i < txnsPerThread; i++ {
					sys.Atomic(th, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
				}
			})
			if got := sys.Memory().Load(a); got != threads*txnsPerThread {
				t.Fatalf("counter = %d, want %d (lost commits under storm)",
					got, threads*txnsPerThread)
			}
			st := sys.Stats().Snapshot()
			if st.Commits() != threads*txnsPerThread {
				t.Fatalf("commits = %d, want %d", st.Commits(), threads*txnsPerThread)
			}
			if st.CommitsHTM != 0 {
				t.Fatalf("CommitsHTM = %d under a total begin storm", st.CommitsHTM)
			}
			if st.FaultsInjected == 0 {
				t.Fatal("FaultsInjected = 0 under a total storm")
			}
			if _, isCore := sys.(*core.System); isCore && st.Escalations() == 0 {
				t.Fatal("Part-HTM never escalated under a total storm")
			}
		})
	}
}

// TestChaosCountersPayForUse: the robustness layer must cost nothing when
// unused — a run without an injector leaves every fault counter at exactly
// zero — and must register activity the moment one is installed.
func TestChaosCountersPayForUse(t *testing.T) {
	if chaosFaultConfig(0, 1) != nil {
		t.Fatal("chaosFaultConfig(0) must disable injection entirely")
	}
	const txns = 50
	run := func(rate float64) tm.Snapshot {
		sys := Build("Part-HTM", BuildOptions{
			DataWords: 1 << 12, Threads: 1, PhysCores: 4, Seed: 1,
			Fault: chaosFaultConfig(rate, 1),
		})
		if (EngineOf(sys).Injector() != nil) != (rate > 0) {
			t.Fatalf("rate %v: injector presence wrong", rate)
		}
		a := sys.Memory().Alloc(1)
		for i := 0; i < txns; i++ {
			sys.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
		}
		if got := sys.Memory().Load(a); got != txns {
			t.Fatalf("rate %v: counter = %d, want %d", rate, got, txns)
		}
		return sys.Stats().Snapshot()
	}
	clean := run(0)
	if clean.FaultsInjected != 0 || clean.Escalations() != 0 {
		t.Fatalf("fault counters nonzero without an injector: %+v", clean)
	}
	dirty := run(1)
	if dirty.FaultsInjected == 0 {
		t.Fatal("no faults registered at rate 1")
	}
	if dirty.CommitsHTM != 0 {
		t.Fatalf("CommitsHTM = %d with every hardware begin failing", dirty.CommitsHTM)
	}
}
