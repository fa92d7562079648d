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
		{"script negative thread", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{-1: {{Site: SiteHTMBegin, Count: 1}}}
		}, "thread range"},
		{"script thread out of range", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{1000: {{Site: SiteHTMBegin, Count: 1}}}
		}, "thread range"},
		{"script thread past default", func(c *Config) {
			c.Scripts = map[int][]ScriptEvent{slots: {{Site: SiteHTMBegin, Count: 1}}}
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
			c.Campaign = []Phase{{Name: "pre"}, {Name: "storm"}}
			c.Campaign[1].Rates[SiteHTMBegin] = SiteRate{Prob: 1, Reason: Reason(7)}
		}, "reason"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 1}
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
	cfg := Config{Seed: 1, QuantumJitter: 0.5}
	cfg.Rates[SiteHTMBegin] = SiteRate{Prob: 1, Reason: Capacity}
	cfg.Scripts = map[int][]ScriptEvent{slots - 1: {{Site: SiteLockSigRead, Reason: Explicit, Code: 1, Count: 5}}}
	storm := Phase{Name: "storm"}
	storm.Rates[SiteHTMBegin] = SiteRate{Prob: 1, Reason: Other}
	cfg.Campaign = []Phase{storm, {Name: "clear"}}
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
	cfg := Config{}
	cfg.Rates[SiteHTMBegin].Prob = 2
	New(cfg)
}

// TestCampaignPhaseRates pins that draws read the current phase's rates,
// not the config-level ones, and that draws alone never end a phase.
func TestCampaignPhaseRates(t *testing.T) {
	cfg := Config{Seed: 1}
	cfg.Rates[SiteHTMCommit] = SiteRate{Prob: 1, Reason: Conflict} // must be ignored
	ph := Phase{Name: "hot"}
	ph.Rates[SiteHTMCommit] = SiteRate{Prob: 1, Reason: Capacity}
	cfg.Campaign = []Phase{{Name: "quiet"}, ph, {Name: "done"}}
	in := New(cfg)

	for i := 0; i < 100; i++ {
		in.Draw(SiteHTMBegin, 0)
		if _, _, ok := in.Draw(SiteHTMCommit, 0); ok {
			t.Fatal("quiet phase injected at commit")
		}
	}
	if in.PhaseName() != "quiet" {
		t.Fatalf("phase %q after 100 begins, want quiet: only AdvancePhase ends a phase", in.PhaseName())
	}
	in.AdvancePhase()
	if in.PhaseName() != "hot" {
		t.Fatalf("phase %q after one advance, want hot", in.PhaseName())
	}
	if r, _, ok := in.Draw(SiteHTMCommit, 0); !ok || r != Capacity {
		t.Fatalf("hot phase commit draw: (%v,%v), want injected Capacity", r, ok)
	}
}

// TestCampaignManualAdvance drives phases by AdvancePhase, the way the
// harness sequences wall-clock soak phases.
func TestCampaignManualAdvance(t *testing.T) {
	storm := Phase{Name: "storm"}
	storm.Rates[SiteHTMBegin] = SiteRate{Prob: 1, Reason: Other}
	in := New(Config{Seed: 1, Campaign: []Phase{{Name: "pre"}, storm, {Name: "post"}}})
	for i := 0; i < 5; i++ {
		if _, _, ok := in.Draw(SiteHTMBegin, 0); ok {
			t.Fatalf("pre-phase begin %d injected", i+1)
		}
	}
	if got := in.AdvancePhase(); got != 1 {
		t.Fatalf("AdvancePhase returned %d, want 1", got)
	}
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
	if got := New(Config{Seed: 1}).AdvancePhase(); got != -1 {
		t.Fatalf("AdvancePhase without campaign returned %d, want -1", got)
	}
}

// TestCampaignAdvanceConcurrent draws from several slots while other
// goroutines race AdvancePhase through a long campaign. Phase i fires
// reason i%5 at every site with probability 1 (reason 0 is None: no fault),
// so each draw narrows down the table that judged it. Checked: the advances
// step through every phase exactly once and stop at the last; each draw was
// judged by one phase that was current at some instant during the draw; no
// thread sees the campaign move back.
func TestCampaignAdvanceConcurrent(t *testing.T) {
	const phases, drawers, advancers, calls = 2000, 4, 4, 1000
	cfg := Config{Seed: 1}
	for i := 0; i < phases; i++ {
		r := Reason(i % int(Other+1))
		ph := Phase{Name: r.String()}
		if r != None {
			for s := range ph.Rates {
				ph.Rates[s] = SiteRate{Prob: 1, Reason: r}
			}
		}
		cfg.Campaign = append(cfg.Campaign, ph)
	}
	const last = phases - 1
	in := New(cfg)

	start, done := make(chan struct{}), make(chan struct{})
	var drawing, advancing sync.WaitGroup
	for th := 0; th < drawers; th++ {
		drawing.Add(1)
		go func(th int) {
			defer drawing.Done()
			<-start
			seen := 0 // earliest phase consistent with every draw so far
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				before := in.PhaseIndex()
				r, _, _ := in.Draw(Site(n%int(NumSites)), th)
				after := in.PhaseIndex()
				j := max(before, seen)
				for j <= after && j%int(Other+1) != int(r) {
					j++
				}
				if j > after {
					t.Errorf("slot %d drew %v: no phase in %d..%d fires it", th, r, max(before, seen), after)
					return
				}
				seen = j
			}
		}(th)
	}
	// Each advancer keeps what AdvancePhase returned to it; nothing shared
	// slows the race between them.
	var got [advancers][calls]int
	for a := range got {
		advancing.Add(1)
		go func(mine *[calls]int) {
			defer advancing.Done()
			<-start
			for i := range mine {
				mine[i] = in.AdvancePhase()
			}
		}(&got[a])
	}
	close(start)
	advancing.Wait()
	close(done)
	drawing.Wait()

	returned := map[int]int{}
	for a := range got {
		for _, p := range got[a] {
			returned[p]++
		}
	}

	for i := 1; i < last; i++ {
		if returned[i] != 1 {
			t.Fatalf("AdvancePhase returned %d %d times, want once", i, returned[i])
		}
	}
	if want := advancers*calls - (last - 1); returned[last] != want {
		t.Errorf("AdvancePhase returned the last phase %d times, want %d", returned[last], want)
	}
	if len(returned) != last {
		t.Errorf("AdvancePhase returned %d distinct phases: one outside 1..%d", len(returned), last)
	}
	if got := in.PhaseIndex(); got != last {
		t.Fatalf("final phase %d, want %d", got, last)
	}
}
