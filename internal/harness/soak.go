// Soak experiment: liveness under a multi-phase chaos campaign. Where the
// chaos experiment sweeps steady-state fault rates, the soak drives every
// system through adversarial *regimes* — a total hardware-begin-failure
// storm, sustained degradation, recovery — with the resource governor and
// the progress watchdog attached, and reports per-phase throughput,
// commit-path splits, and the governor/watchdog counters. The liveness
// invariants themselves (every transaction commits, no stall past the
// watchdog deadline, the hardware path recovers post-storm) are asserted by
// soak_test.go; the experiment is the observable version of the same run.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/abort"
	"repro/internal/bench/nrmw"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/tm"
	"repro/internal/trace"
)

// SoakFaultConfig builds the fault campaign for a preset: one rate table
// per phase, which the harness advances at wall-clock boundaries. The
// phase-name list is returned alongside so callers can sequence without
// re-deriving it from the config.
func SoakFaultConfig(preset string, seed int64) (*fault.Config, []string, error) {
	cfg := &fault.Config{Seed: seed}
	// The storm: every hardware begin fails.
	stormPhase := fault.Phase{Name: "storm"}
	stormPhase.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: 1, Reason: abort.Other}
	switch preset {
	case "", "storm":
		cfg.Campaign = []fault.Phase{{Name: "pre"}, stormPhase, {Name: "clear"}}
	case "ramp":
		// The storm, then sustained degradation (the chaos sweep's 0.3 regime),
		// then clear — the full storm → degrade → clear arc.
		degrade := fault.Phase{Name: "degrade"}
		degrade.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: 0.3, Reason: abort.Other}
		degrade.Rates[fault.SiteHTMCommit] = fault.SiteRate{Prob: 0.05, Reason: abort.Conflict}
		cfg.Campaign = []fault.Phase{{Name: "pre"}, stormPhase, degrade, {Name: "clear"}}
	default:
		return nil, nil, fmt.Errorf("unknown soak campaign %q (have: storm, ramp)", preset)
	}
	names := make([]string, len(cfg.Campaign))
	for i, ph := range cfg.Campaign {
		names[i] = ph.Name
	}
	return cfg, names, nil
}

// soakWatchdogConfig samples fast enough that a stall inside one phase of a
// short run still crosses the alarm deadline.
func soakWatchdogConfig(phase time.Duration) governor.WatchdogConfig {
	cfg := governor.DefaultWatchdogConfig()
	if iv := phase / 50; iv < cfg.Interval {
		cfg.Interval = iv
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	return cfg
}

// runSoak drives every system through the campaign phases on the chaos
// workload, one Throughput window per phase, with a fresh governor attached
// and a watchdog sampling each phase. TM stats reset at phase boundaries so
// each report row covers exactly one phase (the engine's hardware taxonomy
// stays cumulative).
func runSoak(o Options) (*Result, error) {
	o = o.withDefaults([]int{4}, SystemNames)
	threads := o.Threads[0]
	fcfg, phases, err := SoakFaultConfig(o.Campaign, o.Seed)
	if err != nil {
		return nil, err
	}
	wcfg := soakWatchdogConfig(o.Duration)
	if o.Watchdog != nil {
		wcfg = *o.Watchdog
	}
	cfg := nrmw.Config{ArraySize: 65536, N: 64, M: 16, PartitionEvery: 16}
	out := &Result{Notes: []string{fmt.Sprintf(
		"# Soak: campaign %q, N-Reads M-Writes N=%d M=%d @%d threads, governor+watchdog attached (stall deadline %v)",
		phases, cfg.N, cfg.M, threads, wcfg.Deadline())}}
	if o.Governor == nil {
		// The soak is about the governor: always govern, even when the CLI
		// did not ask for one.
		gcfg := governor.DefaultConfig()
		o.Governor = &gcfg
	}
	for _, name := range o.Systems {
		sys := o.build(name, BuildOptions{DataWords: cfg.MemWords(), Threads: threads, Fault: fcfg})
		k := KernelOf(sys)
		if k == nil {
			return nil, fmt.Errorf("soak: system %q has no execution kernel to govern", name)
		}
		var inj *fault.Injector
		if eng := EngineOf(sys); eng != nil {
			inj = eng.Injector()
		}
		b := nrmw.New(sys, threads, cfg)
		op := func(th int, rng *rand.Rand) { b.Op(th, rng) }
		for pi, phase := range phases {
			if pi > 0 {
				if inj != nil {
					inj.AdvancePhase()
				}
				sys.Stats().Reset()
			}
			o.Trace.Mark(fmt.Sprintf("soak %s phase=%s", name, phase))
			wd := soakWatchdog(wcfg, sys, k, threads, o.Trace)
			if o.Flight != nil {
				wd.OnAlarm(o.Flight.NoteAlarm)
			}
			wd.Start()
			res := Throughput(sys, op, threads, o.Duration, o.Seed)
			wd.Stop()
			rep := o.report(name, threads, sys)
			rep.Phase, rep.Throughput = phase, &res
			o.progressf("soak %s phase=%s done: %.0f tx/s commits=%d alarms=%d",
				name, phase, res.OpsPerSec, rep.Stats.Commits(), rep.Stats.WatchdogAlarms)
			// The workers have joined and the watchdog has stopped: a
			// quiesce point, so an armed flight dump may read the trace
			// rings.
			if o.Flight != nil {
				if dump, err := o.Flight.Flush(fmt.Sprintf("%s-%s", name, phase)); err != nil {
					return nil, fmt.Errorf("soak: flight dump: %w", err)
				} else if dump != "" {
					o.progressf("soak %s phase=%s flight artifact %s", name, phase, dump)
				}
			}
			out.Reports = append(out.Reports, rep)
		}
	}
	return out, nil
}

// soakWatchdog builds one phase's watchdog over the system's kernel: its
// governor's in-transaction flags attached, and the trace sink shared with
// the workers (the watchdog writes its own slot).
func soakWatchdog(cfg governor.WatchdogConfig, sys tm.System, k *exec.Runner, threads int, sink *trace.Sink) *governor.Watchdog {
	wd := governor.NewWatchdog(cfg, sys.Stats(), threads)
	wd.AttachGovernor(k.Governor())
	if sink != nil {
		wd.SetTrace(sink)
	}
	return wd
}
