package fault

import (
	"testing"

	"repro/internal/perthread"
)

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 1})
	for i := 0; i < 10_000; i++ {
		for s := Site(0); s < NumSites; s++ {
			if _, _, ok := in.Draw(s, i%2); ok {
				t.Fatalf("draw %d at %v injected", i, s)
			}
		}
	}
	if in.Stats().Total() != 0 {
		t.Fatalf("stats nonzero: %d", in.Stats().Total())
	}
	if in.Quantum(0, 1000) != 1000 {
		t.Fatal("quantum perturbed without jitter")
	}
}

func TestRateDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []bool {
		cfg := Config{Seed: seed}
		cfg.Rates[SiteHTMBegin] = SiteRate{Prob: 0.3, Reason: Other}
		in := New(cfg)
		out := make([]bool, 200)
		for i := range out {
			_, _, out[i] = in.Draw(SiteHTMBegin, 0)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	hits, differs := 0, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] != c[i] {
			differs = true
		}
		if a[i] {
			hits++
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical sequences")
	}
	if hits < 20 || hits > 120 {
		t.Fatalf("rate 0.3 hit %d/200 draws", hits)
	}
}

func TestRateReasonPropagates(t *testing.T) {
	cfg := Config{Seed: 1}
	cfg.Rates[SiteHTMCommit] = SiteRate{Prob: 1, Reason: Capacity}
	in := New(cfg)
	r, _, ok := in.Draw(SiteHTMCommit, 0)
	if !ok || r != Capacity {
		t.Fatalf("got (%v,%v), want forced Capacity", r, ok)
	}
	if in.Stats().BySite(SiteHTMCommit) != 1 {
		t.Fatal("site counter not bumped")
	}
}

// TestTotalStormKillsEveryBegin: a begin rate of 1 is an abort storm. Every
// one of the engine's slots, drawing concurrently, fails every begin.
func TestTotalStormKillsEveryBegin(t *testing.T) {
	const perSlot = 100
	cfg := Config{Seed: 1}
	cfg.Rates[SiteHTMBegin] = SiteRate{Prob: 1, Reason: Other}
	in := New(cfg)
	perthread.Run(MaxSlots, func(th int) {
		for i := 0; i < perSlot; i++ {
			if r, _, ok := in.Draw(SiteHTMBegin, th); !ok || r != Other {
				t.Errorf("slot %d begin %d survived the total storm", th, i)
				return
			}
		}
	})
	if got := in.Stats().BySite(SiteHTMBegin); got != MaxSlots*perSlot {
		t.Fatalf("injected %d begins, want %d", got, MaxSlots*perSlot)
	}
}

func TestScriptOrderAndExhaustion(t *testing.T) {
	in := New(Config{
		Seed: 1,
		Scripts: map[int][]ScriptEvent{
			1: {
				{Site: SiteHTMCommit, Reason: Explicit, Code: 3, Count: 2},
				{Site: SiteHTMBegin, Reason: Capacity, Count: 1},
			},
		},
	})
	// Thread 0 has no script: nothing fires.
	if _, _, ok := in.Draw(SiteHTMCommit, 0); ok {
		t.Fatal("unscripted thread injected")
	}
	// Head event is for commit: begin draws pass through untouched.
	if _, _, ok := in.Draw(SiteHTMBegin, 1); ok {
		t.Fatal("begin fired while commit event was at the head")
	}
	for i := 0; i < 2; i++ {
		r, code, ok := in.Draw(SiteHTMCommit, 1)
		if !ok || r != Explicit || code != 3 {
			t.Fatalf("commit draw %d: (%v,%d,%v)", i, r, code, ok)
		}
	}
	// Commit event exhausted: the begin event is now the head.
	if _, _, ok := in.Draw(SiteHTMCommit, 1); ok {
		t.Fatal("commit fired past its scripted count")
	}
	if r, _, ok := in.Draw(SiteHTMBegin, 1); !ok || r != Capacity {
		t.Fatalf("scripted begin: (%v,%v)", r, ok)
	}
	// Script fully drained.
	if _, _, ok := in.Draw(SiteHTMBegin, 1); ok {
		t.Fatal("drained script still firing")
	}
	if got := in.Stats().Total(); got != 3 {
		t.Fatalf("injected total = %d, want 3", got)
	}
}

func TestExplicitScriptDefaultsInjectedCode(t *testing.T) {
	in := New(Config{Seed: 1, Scripts: map[int][]ScriptEvent{
		0: {{Site: SiteRingPub, Reason: Explicit, Count: 1}},
	}})
	_, code, ok := in.Draw(SiteRingPub, 0)
	if !ok || code != InjectedCode {
		t.Fatalf("code = %#x, ok=%v", code, ok)
	}
}

func TestQuantumJitterBoundedAndDeterministic(t *testing.T) {
	mk := func() *Injector {
		return New(Config{Seed: 5, QuantumJitter: 0.5})
	}
	a, b := mk(), mk()
	varied := false
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		qa, qb := a.Quantum(0, 1000), b.Quantum(0, 1000)
		if qa != qb {
			t.Fatalf("draw %d: %d != %d with same seed", i, qa, qb)
		}
		if qa < 500 || qa > 1500 {
			t.Fatalf("draw %d: quantum %d outside ±50%%", i, qa)
		}
		if prev >= 0 && qa != prev {
			varied = true
		}
		prev = qa
	}
	if !varied {
		t.Fatal("jittered quantum never varied")
	}
	if mk().Quantum(0, 0) != 0 {
		t.Fatal("unlimited quantum must stay unlimited")
	}
}
