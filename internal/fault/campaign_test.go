package fault

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestValidateRejectsMalformedConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative threads", func(c *Config) { c.Threads = -1 }, "negative"},
		{"nan jitter", func(c *Config) { c.QuantumJitter = math.NaN() }, "finite"},
		{"inf jitter", func(c *Config) { c.QuantumJitter = math.Inf(1) }, "finite"},
		{"jitter over one", func(c *Config) { c.QuantumJitter = 1.5 }, "[0,1]"},
		{"negative jitter", func(c *Config) { c.QuantumJitter = -0.1 }, "[0,1]"},
		{"nan rate", func(c *Config) { c.Rates[SiteHTMBegin].Prob = math.NaN() }, "finite"},
		{"negative rate", func(c *Config) { c.Rates[SiteRingPub].Prob = -0.5 }, "[0,1]"},
		{"rate over one", func(c *Config) { c.Rates[SiteHTMCommit].Prob = 2 }, "[0,1]"},
		{"rate bad reason", func(c *Config) {
			c.Rates[SiteHTMBegin] = SiteRate{Prob: 0.5, Reason: Reason(99)}
		}, "reason"},
		{"storm from zero", func(c *Config) {
			c.Storms = []Storm{{From: 0, To: 5}}
		}, "From=0"},
		{"storm empty window", func(c *Config) {
			c.Storms = []Storm{{From: 5, To: 5}}
		}, "empty"},
		{"storm inverted window", func(c *Config) {
			c.Storms = []Storm{{From: 5, To: 3}}
		}, "empty"},
		{"storm past period", func(c *Config) {
			c.Storms = []Storm{{From: 10, To: 12, Period: 4}}
		}, "never fires"},
		{"storm bad reason", func(c *Config) {
			c.Storms = []Storm{{From: 1, To: 2, Reason: Reason(7)}}
		}, "reason"},
		{"script negative thread", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{-1: {{Site: SiteHTMBegin, Count: 1}}}
		}, "thread range"},
		{"script thread out of range", func(c *Config) {
			c.Threads = 2
			c.Scripts = map[int][]ScriptEvent{2: {{Site: SiteHTMBegin, Count: 1}}}
		}, "thread range"},
		{"script thread past default", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{64: {{Site: SiteHTMBegin, Count: 1}}}
		}, "thread range"},
		{"script bad site", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{0: {{Site: NumSites, Count: 1}}}
		}, "site"},
		{"script bad reason", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{0: {{Site: SiteHTMBegin, Reason: Reason(9), Count: 1}}}
		}, "reason"},
		{"script negative count", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{0: {{Site: SiteHTMBegin, Count: -3}}}
		}, "count"},
		{"campaign bad rate", func(c *Config) {
			c.Campaign = []Phase{{Name: "storm"}}
			c.Campaign[0].Rates[SiteHTMBegin].Prob = math.Inf(-1)
		}, "finite"},
		{"campaign bad storm", func(c *Config) {
			c.Campaign = []Phase{{Name: "storm", Storms: []Storm{{From: 0, To: Forever}}}}
		}, "From=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 1, Threads: 4}
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsGoodConfigs(t *testing.T) {
	cfg := Config{Seed: 1, Threads: 4, QuantumJitter: 0.5}
	cfg.Rates[SiteHTMBegin] = SiteRate{Prob: 1, Reason: Capacity}
	cfg.Storms = []Storm{{From: 1, To: Forever, Reason: Other}, {From: 2, To: 4, Period: 8}}
	cfg.Scripts = map[int][]ScriptEvent{3: {{Site: SiteLockSigRead, Reason: Explicit, Code: 1, Count: 5}}}
	cfg.Campaign = []Phase{
		{Name: "storm", Storms: []Storm{{From: 1, To: Forever, Reason: Other}}, Begins: 100},
		{Name: "clear"},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed config: %v", err)
	}
	if err := (&Config{}).Validate(); err != nil {
		t.Fatalf("Validate rejected the zero config: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a config Validate rejects")
		}
	}()
	New(Config{Storms: []Storm{{From: 0, To: 5}}})
}

// TestCampaignAutoAdvance drives a three-phase campaign (clean → total
// storm → clean with a rate) on a single thread and pins the exact begin
// ticks at which phases change.
func TestCampaignAutoAdvance(t *testing.T) {
	cfg := Config{Seed: 1, Threads: 1}
	cfg.Campaign = []Phase{
		{Name: "pre", Begins: 4},
		{Name: "storm", Storms: []Storm{{From: 1, To: Forever, Reason: Capacity}}, Begins: 6},
		{Name: "clear"},
	}
	in := New(cfg)
	if got, name := in.PhaseIndex(), in.PhaseName(); got != 0 || name != "pre" {
		t.Fatalf("initial phase %d %q, want 0 \"pre\"", got, name)
	}
	var got []bool
	for i := 0; i < 14; i++ {
		_, _, ok := in.Draw(SiteHTMBegin, 0)
		got = append(got, ok)
	}
	// Begins 1-4: pre (clean). Begins 5-10: storm (all fail). 11+: clear.
	want := []bool{
		false, false, false, false,
		true, true, true, true, true, true,
		false, false, false, false,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("begin %d: injected=%v want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	if got, name := in.PhaseIndex(), in.PhaseName(); got != 2 || name != "clear" {
		t.Fatalf("final phase %d %q, want 2 \"clear\"", got, name)
	}
}

// TestCampaignPhaseRates pins that non-begin sites read the current
// phase's rates, not the config-level ones.
func TestCampaignPhaseRates(t *testing.T) {
	cfg := Config{Seed: 1, Threads: 1}
	cfg.Rates[SiteHTMCommit] = SiteRate{Prob: 1, Reason: Conflict} // must be ignored
	ph := Phase{Name: "hot", Begins: 2}
	ph.Rates[SiteHTMCommit] = SiteRate{Prob: 1, Reason: Capacity}
	cfg.Campaign = []Phase{{Name: "quiet", Begins: 2}, ph, {Name: "done"}}
	in := New(cfg)

	if _, _, ok := in.Draw(SiteHTMCommit, 0); ok {
		t.Fatal("quiet phase injected at commit")
	}
	in.Draw(SiteHTMBegin, 0)
	in.Draw(SiteHTMBegin, 0)
	in.Draw(SiteHTMBegin, 0) // tick 3: now in "hot"
	if in.PhaseName() != "hot" {
		t.Fatalf("phase %q after 3 begins, want hot", in.PhaseName())
	}
	if r, _, ok := in.Draw(SiteHTMCommit, 0); !ok || r != Capacity {
		t.Fatalf("hot phase commit draw: (%v,%v), want injected Capacity", r, ok)
	}
}

// TestCampaignManualAdvance drives phases by AdvancePhase, the way the
// harness sequences wall-clock soak phases, and checks the storm clock
// restarts at each phase boundary.
func TestCampaignManualAdvance(t *testing.T) {
	cfg := Config{Seed: 1, Threads: 1}
	cfg.Campaign = []Phase{
		{Name: "pre"},
		{Name: "storm", Storms: []Storm{{From: 1, To: Forever, Reason: Other}}},
		{Name: "post"},
	}
	in := New(cfg)
	for i := 0; i < 5; i++ {
		if _, _, ok := in.Draw(SiteHTMBegin, 0); ok {
			t.Fatalf("pre-phase begin %d injected", i+1)
		}
	}
	if got := in.AdvancePhase(); got != 1 {
		t.Fatalf("AdvancePhase returned %d, want 1", got)
	}
	// The storm's From=1 is phase-relative: it must fire immediately even
	// though the global clock already stands at 5.
	for i := 0; i < 5; i++ {
		if _, _, ok := in.Draw(SiteHTMBegin, 0); !ok {
			t.Fatalf("storm-phase begin %d survived", i+1)
		}
	}
	if got := in.AdvancePhase(); got != 2 {
		t.Fatalf("AdvancePhase returned %d, want 2", got)
	}
	for i := 0; i < 5; i++ {
		if _, _, ok := in.Draw(SiteHTMBegin, 0); ok {
			t.Fatalf("post-phase begin %d injected", i+1)
		}
	}
	// Past the last phase: no-op.
	if got := in.AdvancePhase(); got != 2 {
		t.Fatalf("AdvancePhase past the end returned %d, want 2", got)
	}
	// No campaign: -1 and no-op.
	if got := New(Config{Seed: 1, Threads: 1}).AdvancePhase(); got != -1 {
		t.Fatalf("AdvancePhase without campaign returned %d, want -1", got)
	}
}

// TestCampaignAdvanceConcurrent hammers auto-advance from many threads and
// checks the phase transition stays exact: the storm phase injects on
// precisely its Begins-budget worth of ticks.
func TestCampaignAdvanceConcurrent(t *testing.T) {
	const threads = 8
	const perThread = 500
	cfg := Config{Seed: 1, Threads: threads}
	cfg.Campaign = []Phase{
		{Name: "pre", Begins: 1000},
		{Name: "storm", Storms: []Storm{{From: 1, To: Forever, Reason: Other}}, Begins: 1500},
		{Name: "clear"},
	}
	in := New(cfg)
	var wg sync.WaitGroup
	var injected [threads]int
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				if _, _, ok := in.Draw(SiteHTMBegin, th); ok {
					injected[th]++
				}
			}
		}(th)
	}
	wg.Wait()
	total := 0
	for _, n := range injected {
		total += n
	}
	// 4000 begins total: ticks 1-1000 clean, 1001-2500 storm, 2501+ clean.
	if total != 1500 {
		t.Fatalf("storm injected %d begins, want exactly 1500", total)
	}
	if in.PhaseIndex() != 2 {
		t.Fatalf("final phase %d, want 2", in.PhaseIndex())
	}
}

// TestCampaignStragglerJudgedByItsOwnPhase: a thread overtaken between
// taking its begin tick and reading the published phase must be judged by
// the phase its tick fell in, and must not disturb the campaign position.
// The overtaking is built, not raced: a second goroutine draws the phase
// forward, then the clock is set so the straggler's Draw takes the tick it
// would have been holding.
func TestCampaignStragglerJudgedByItsOwnPhase(t *testing.T) {
	campaign := []Phase{
		{Name: "pre", Begins: 2},
		{Name: "storm", Storms: []Storm{{From: 1, To: Forever, Reason: Other}}, Begins: 3},
		{Name: "clear"},
	}
	overtake := func(in *Injector, begins int) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < begins; i++ {
				in.Draw(SiteHTMBegin, 0)
			}
		}()
		<-done
	}
	for _, tc := range []struct {
		name            string
		overtaken, tick uint64
		phaseBefore     int
		wantInject      bool
	}{
		// Ticks 1-2 pre, 3-5 storm, 6+ clear.
		{"storm tick, clear published", 6, 5, 2, true},
		{"storm tick at the boundary", 6, 3, 2, true},
		{"pre tick, storm published", 3, 1, 1, false}, // tick - start underflowed here
		{"pre tick, clear published", 6, 2, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := New(Config{Seed: 1, Threads: 2, Campaign: campaign})
			overtake(in, int(tc.overtaken))
			if got := in.PhaseIndex(); got != tc.phaseBefore {
				t.Fatalf("phase %d after %d begins, want %d", got, tc.overtaken, tc.phaseBefore)
			}
			in.clock.Store(tc.tick - 1)
			if _, _, ok := in.Draw(SiteHTMBegin, 1); ok != tc.wantInject {
				t.Fatalf("straggler at tick %d: injected = %v, want %v", tc.tick, ok, tc.wantInject)
			}
			if got := in.PhaseIndex(); got != tc.phaseBefore {
				t.Fatalf("straggler moved the campaign from phase %d to %d", tc.phaseBefore, got)
			}
		})
	}
}
