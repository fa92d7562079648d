package harness

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/tm"
)

// TestSoakStormLiveness is the deterministic version of the soak
// experiment's acceptance invariant: under a 100%-hardware-begin-failure
// storm, every system — governed, watchdog attached — keeps committing
// through its software/lock fallback (no hardware commits, no stall longer
// than the watchdog deadline), and once the storm clears, the hardware path
// recovers: the same fixed workload commits at least two thirds as many
// transactions in hardware as its pre-storm run did. Recovery is gated on
// that counter, not on wall-clock — one pass is ~7 ms, and on a shared host
// its duration swings 2× with how the scheduler happens to interleave the
// four workers.
func TestSoakStormLiveness(t *testing.T) {
	const threads = 4
	const txnsPerThread = 800
	for _, name := range SystemNames {
		t.Run(name, func(t *testing.T) {
			fcfg, phases, err := SoakFaultConfig("storm", 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(phases) != 3 || phases[1] != "storm" {
				t.Fatalf("storm campaign phases = %v", phases)
			}
			gcfg := governor.DefaultConfig()
			sys := Build(name, BuildOptions{
				DataWords: 1 << 12, Threads: threads, PhysCores: 4, Seed: 1,
				Fault: fcfg, Governor: &gcfg,
			})
			gov := KernelOf(sys).Governor()
			inj := (*fault.Injector)(nil)
			if eng := EngineOf(sys); eng != nil {
				inj = eng.Injector()
			}

			a := sys.Memory().Alloc(1)
			total := 0
			runPhase := func() {
				var wg sync.WaitGroup
				for th := 0; th < threads; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						for i := 0; i < txnsPerThread; i++ {
							sys.Atomic(th, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
						}
					}(th)
				}
				wg.Wait()
				total += threads * txnsPerThread
			}
			nextPhase := func() {
				if inj != nil {
					inj.AdvancePhase()
				}
				sys.Stats().Reset()
			}
			watch := func() (*governor.Watchdog, *collectorT) {
				wcfg := governor.DefaultWatchdogConfig()
				// The stall deadline is host time, which the race
				// detector stretches: at 1 ms a race-built storm worker
				// sometimes goes the 5-ms deadline without a commit.
				wcfg.Interval = time.Millisecond
				if raceEnabled {
					wcfg.Interval = 10 * time.Millisecond
				}
				wd := governor.NewWatchdog(wcfg, sys.Stats(), threads)
				wd.AttachGovernor(gov)
				c := &collectorT{}
				wd.OnAlarm(c.add)
				wd.Start()
				return wd, c
			}

			// Pre-storm: one warm-up pass, then the reference pass.
			runPhase()
			sys.Stats().Reset()
			runPhase()
			pre := sys.Stats().Snapshot()

			// The storm: every hardware begin fails for the whole phase.
			nextPhase()
			wd, alarms := watch()
			runPhase()
			wd.Stop()
			st := sys.Stats().Snapshot()
			if st.Commits() != threads*txnsPerThread {
				t.Fatalf("storm commits = %d, want %d (lost transactions)",
					st.Commits(), threads*txnsPerThread)
			}
			if inj != nil && st.CommitsHTM != 0 {
				t.Fatalf("CommitsHTM = %d under a total begin storm", st.CommitsHTM)
			}
			if n := alarms.stalls(); n != 0 {
				t.Fatalf("%d stall alarms during the storm: no worker may stall past the watchdog deadline", n)
			}
			if inj != nil && st.FaultsInjected == 0 {
				t.Fatal("storm phase injected nothing")
			}

			// Clear: the breaker must let hardware back in and the commit
			// mix must recover. One warm-up pass absorbs the probe ramp.
			nextPhase()
			runPhase()
			sys.Stats().Reset()
			runPhase()
			if inj != nil {
				clear := sys.Stats().Snapshot()
				if clear.CommitsHTM == 0 {
					t.Fatalf("no hardware commits after the storm cleared (breaker stuck open?): %+v", clear)
				}
				if 3*clear.CommitsHTM < 2*pre.CommitsHTM {
					t.Fatalf("post-storm pass committed %d in hardware, under 2/3 of the pre-storm %d: %+v",
						clear.CommitsHTM, pre.CommitsHTM, clear)
				}
			}

			if got := sys.Memory().Load(a); got != uint64(total) {
				t.Fatalf("counter = %d, want %d", got, total)
			}
		})
	}
}

// collectorT gathers watchdog alarms thread-safely.
type collectorT struct {
	mu     sync.Mutex
	alarms []governor.Alarm
}

func (c *collectorT) add(a governor.Alarm) {
	c.mu.Lock()
	c.alarms = append(c.alarms, a)
	c.mu.Unlock()
}

func (c *collectorT) stalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, a := range c.alarms {
		if a.Kind == governor.AlarmStall {
			n++
		}
	}
	return n
}

// TestSoakExperimentRuns drives the registered soak experiment end to end
// on a short window and checks the report shape: one row per (system,
// phase), phases in campaign order, throughput present, and the storm rows
// of engine-backed systems free of hardware commits.
func TestSoakExperimentRuns(t *testing.T) {
	exp, ok := Find("soak")
	if !ok {
		t.Fatal("soak experiment not registered")
	}
	systems := []string{"HTM-GL", "Part-HTM"}
	gcfg := governor.Config{} // breaker off: a soak that ran a default governor instead trips it in the storm
	reg := obs.NewRegistry()
	res, err := exp.Execute(Options{
		Threads:  []int{2},
		Duration: 40 * time.Millisecond,
		Systems:  systems,
		Seed:     1,
		Governor: &gcfg,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The registry must see the soak's governor, whose in-transaction
	// flags the watchdog reads.
	var snap obs.Snapshot
	reg.Sample(&snap)
	if len(snap.Systems) != len(systems) {
		t.Fatalf("registry holds %d systems, want %d", len(snap.Systems), len(systems))
	}
	for _, s := range snap.Systems {
		if !s.HasGov {
			t.Fatalf("%s registered without the soak's governor", s.Name)
		}
	}
	_, phases, _ := SoakFaultConfig("storm", 1)
	if want := len(systems) * len(phases); len(res.Reports) != want {
		t.Fatalf("%d reports, want %d", len(res.Reports), want)
	}
	for i, rep := range res.Reports {
		wantPhase := phases[i%len(phases)]
		if rep.Phase != wantPhase {
			t.Fatalf("report %d phase %q, want %q", i, rep.Phase, wantPhase)
		}
		if rep.Throughput == nil || rep.Throughput.OpsPerSec <= 0 {
			t.Fatalf("report %d (%s/%s) has no throughput", i, rep.System, rep.Phase)
		}
		if rep.Stats.Commits() == 0 {
			t.Fatalf("report %d (%s/%s) committed nothing", i, rep.System, rep.Phase)
		}
		if rep.Phase == "storm" && rep.Stats.CommitsHTM != 0 {
			t.Fatalf("%s storm phase has %d hardware commits", rep.System, rep.Stats.CommitsHTM)
		}
		if rep.Stats.BreakerTrips != 0 || rep.Stats.BreakerSlow != 0 {
			t.Fatalf("%s/%s ran a breaker the caller's config disabled: %d trips, %d direct-to-slow",
				rep.System, rep.Phase, rep.Stats.BreakerTrips, rep.Stats.BreakerSlow)
		}
	}
	if res.Text() == "" {
		t.Fatal("empty text rendering")
	}
	// The unknown-campaign error path.
	if _, err := exp.Execute(Options{Campaign: "nope", Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}
