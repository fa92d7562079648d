// Experiment registry: one entry per table and figure of the paper's
// evaluation (§7), plus the robustness, profiling and domain experiments
// of DESIGN.md §7–§14.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/abort"
	"repro/internal/bench/eigen"
	"repro/internal/bench/list"
	"repro/internal/bench/nrmw"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stamp"
	"repro/internal/stamp/genome"
	"repro/internal/stamp/intruder"
	"repro/internal/stamp/kmeans"
	"repro/internal/stamp/labyrinth"
	"repro/internal/stamp/ssca2"
	"repro/internal/stamp/vacation"
	"repro/internal/stamp/yada"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Threads is the x-axis sweep; nil uses the experiment's default.
	Threads []int
	// Duration is the measured window per throughput data point.
	Duration time.Duration
	// Systems restricts the compared systems; nil uses the experiment's
	// default set.
	Systems []string
	// PhysCores models the host CPU for the hyper-threading capacity model
	// (the paper's i7 has 4 physical cores).
	PhysCores int
	// Seed makes probabilistic hardware behaviour reproducible.
	Seed int64
	// FaultRate, when positive, replaces the chaos experiment's default
	// fault-rate sweep with {0, FaultRate} (the -fault flag).
	FaultRate float64
	// Trace, when non-nil, is attached to every system the experiment
	// builds: reports gain per-path/per-cause latency tables and the sink
	// accumulates the event stream for -trace export.
	Trace *trace.Sink
	// Governor, when non-nil, attaches a resource governor built from this
	// config to every system the experiment builds (the -governor flag).
	Governor *governor.Config
	// Campaign selects the soak experiment's chaos-campaign preset; empty
	// uses the default ("storm").
	Campaign string
	// Profile, when non-nil, is attached to every system the experiment
	// builds: report rows gain hot-line and footprint tables.
	Profile *prof.Profile
	// Domains replaces the domains experiment's default domain-count sweep
	// (the -domains flag); nil keeps {1, 2, 4, 8}.
	Domains []int
	// Cross replaces the domains experiment's default cross-domain-ratio
	// sweep (the -cross flag); nil keeps {0, 0.2}.
	Cross []float64
	// Obs, when non-nil, is threaded into every Build the experiment
	// performs, so each constructed system registers its telemetry sources
	// with the flight recorder's registry (the -flight plumbing).
	Obs *obs.Registry
	// Flight, when non-nil, is the black-box flight recorder: soak
	// campaigns wire watchdog alarms into it and flush any armed dump at
	// phase boundaries (the workers are quiesced there, so the trace rings
	// are safe to read).
	Flight *obs.FlightRecorder
	// Watchdog overrides the soak campaigns' progress-watchdog
	// configuration (the -wd-interval / -wd-stall flags; CI uses a
	// hair-trigger setting to force an alarm deterministically).
	Watchdog *governor.WatchdogConfig
	// Progress, when non-nil, receives a plain-text progress line as each
	// micro-benchmark cell, chaos row or soak phase ends (a soak phase's
	// carries its commits and alarms), so a hung nightly job is
	// diagnosable from its log alone.
	Progress io.Writer
}

// withDefaults fills unset options.
func (o Options) withDefaults(threads []int, systems []string) Options {
	if o.Threads == nil {
		o.Threads = threads
	}
	if o.Duration == 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.Systems == nil {
		o.Systems = systems
	}
	if o.PhysCores == 0 {
		o.PhysCores = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// progressf emits one progress line when the experiment was given a
// progress writer (no-op otherwise). One line per completed unit of work
// — a sweep row, a campaign phase — keeps long CI logs diagnosable
// without flooding them.
func (o *Options) progressf(format string, args ...any) {
	if o.Progress == nil {
		return
	}
	fmt.Fprintf(o.Progress, "progress: "+format+"\n", args...)
}

// build builds the named system from the experiment's own choices in b
// (DataWords, Threads, Core, Fault) and the run's settings and instruments
// (PhysCores, Seed, Trace, Governor, Profile, Obs): the one place an
// experiment builds a system.
func (o *Options) build(name string, b BuildOptions) tm.System {
	b.PhysCores, b.Seed = o.PhysCores, o.Seed
	b.Trace, b.Governor, b.Profile, b.Obs = o.Trace, o.Governor, o.Profile, o.Obs
	return Build(name, b)
}

// report captures a built system's counters into its report row. It drains
// the trace's latency histograms and the profile's shard state into the row
// and resets them, so the next row starts clean (the profile's session
// footprints survive Reset). Untraced and unprofiled runs get nil tables.
func (o *Options) report(name string, threads int, sys tm.System) SystemReport {
	rep := SystemReport{
		System:  name,
		Threads: threads,
		Stats:   sys.Stats().Snapshot(),
		Engine:  EngineSnapshotOf(sys),
	}
	if o.Trace != nil {
		rep.Latency = LatencyReportOf(o.Trace.Latency())
		o.Trace.ResetLatency()
	}
	if o.Profile != nil {
		rep.Profile = ProfileReportOf(o.Profile)
		o.Profile.Reset()
	}
	return rep
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (*Result, error)
}

// Execute runs the experiment and stamps the result with the experiment's
// identity, so renderers and JSON consumers can tell results apart. It
// first clears the latency histograms and the profile, which a figure's
// sweep fills but never reports, so a report row covers only its own run.
func (e Experiment) Execute(o Options) (*Result, error) {
	if o.Trace != nil {
		o.Trace.ResetLatency()
	}
	if o.Profile != nil {
		o.Profile.Reset()
	}
	res, err := e.Run(o)
	if res != nil {
		res.ID, res.Title = e.ID, e.Title
	}
	return res, err
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: abort breakdown and commit paths, Labyrinth @4 threads", runTable1},
		{"fig3a", "Figure 3(a): N-Reads M-Writes, N=M=10", microExp(func() microBench { return nrmwBench(nrmw.Fig3a()) }, "M tx/sec", 1e6, nil)},
		{"fig3b", "Figure 3(b): N-Reads M-Writes, N=100k M=100", microExp(func() microBench { return nrmwBench(nrmw.Fig3b()) }, "K tx/sec", 1e3, fig3bOpts)},
		{"fig3c", "Figure 3(c): 100x(read,FP work,write), 25 iters/sub-tx", microExp(func() microBench { return nrmwBench(nrmw.Fig3c()) }, "K tx/sec", 1e3, nil)},
		{"fig4a", "Figure 4(a): linked list, 1K elements, 50% writes", microExp(func() microBench { return listBench(list.Fig4a()) }, "M tx/sec", 1e6, nil)},
		{"fig4b", "Figure 4(b): linked list, 10K elements, 50% writes", microExp(func() microBench { return listBench(list.Fig4b()) }, "K tx/sec", 1e3, nil)},
		{"fig5a", "Figure 5(a): STAMP kmeans, low contention", stampExp(func() stamp.App { return kmeans.New(kmeans.LowContention()) })},
		{"fig5b", "Figure 5(b): STAMP kmeans, high contention", stampExp(func() stamp.App { return kmeans.New(kmeans.HighContention()) })},
		{"fig5c", "Figure 5(c): STAMP ssca2", stampExp(func() stamp.App { return ssca2.New(ssca2.Default()) })},
		{"fig5d", "Figure 5(d): STAMP labyrinth", stampExp(func() stamp.App { return labyrinth.New(labyrinth.Default()) })},
		{"fig5e", "Figure 5(e): STAMP intruder", stampExp(func() stamp.App { return intruder.New(intruder.Default()) })},
		{"fig5f", "Figure 5(f): STAMP vacation, low contention", stampExp(func() stamp.App { return vacation.New(vacation.LowContention()) })},
		{"fig5g", "Figure 5(g): STAMP vacation, high contention", stampExp(func() stamp.App { return vacation.New(vacation.HighContention()) })},
		{"fig5h", "Figure 5(h): STAMP yada", stampExp(func() stamp.App { return yada.New(yada.Default()) })},
		{"fig5i", "Figure 5(i): STAMP genome", stampExp(func() stamp.App { return genome.New(genome.Default()) })},
		{"fig6a", "Figure 6(a): EigenBench, 50% long / 50% short transactions", microExp(func() microBench { return eigenBench(eigen.Fig6a()) }, "M tx/sec", 1e6, nil)},
		{"fig6b", "Figure 6(b): EigenBench, high contention", microExp(func() microBench { return eigenBench(eigen.Fig6b()) }, "K tx/sec", 1e3, nil)},
		{"chaos", "Chaos: fault-injection sweep — throughput, commit paths, escalations", runChaos},
		{"soak", "Soak: multi-phase chaos campaign under the resource governor and progress watchdog", runSoak},
		{"heatmap", "Heatmap: planted conflict hotspot under packed vs spread allocation (Dice et al. placement effect)", runHeatmap},
		{"domains", "Domains: sharded memory domains — throughput vs domain count and cross-domain ratio", runDomains},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Micro-benchmark experiments (Figures 3, 4, 6)

// microBench abstracts a throughput workload: how much memory it needs and
// an OpFunc bound to a concrete system.
type microBench struct {
	words int
	bind  func(sys tm.System, threads int) OpFunc
}

func nrmwBench(cfg nrmw.Config) microBench {
	return microBench{
		words: cfg.MemWords(),
		bind: func(sys tm.System, threads int) OpFunc {
			b := nrmw.New(sys, threads, cfg)
			return func(th int, rng *rand.Rand) { b.Op(th, rng) }
		},
	}
}

func listBench(cfg list.Config) microBench {
	// Size the node pool for the longest plausible measurement window.
	cfg.Capacity = cfg.Size + 1_500_000
	return microBench{
		words: cfg.MemWords(),
		bind: func(sys tm.System, threads int) OpFunc {
			l := list.New(sys, cfg)
			return func(th int, rng *rand.Rand) { l.Op(th, rng) }
		},
	}
}

func eigenBench(cfg eigen.Config) microBench {
	return microBench{
		words: cfg.MemWords(),
		bind: func(sys tm.System, threads int) OpFunc {
			b := eigen.New(sys, threads, cfg)
			return func(th int, rng *rand.Rand) { b.Op(th, rng) }
		},
	}
}

var defaultThreads = []int{1, 2, 4, 8}

// fig3bOpts fills Figure 3(b)'s defaults, before withDefaults: the sweep to
// 18 threads the Xeon ran, unless threads were given, and the
// Part-HTM-no-fast series, unless it is already listed.
func fig3bOpts(o *Options) {
	if o.Threads == nil {
		o.Threads = []int{1, 2, 4, 8, 12, 18}
	}
	if o.Systems == nil {
		o.Systems = AllSystemNames
	} else if !slices.Contains(o.Systems, "Part-HTM-no-fast") {
		o.Systems = append(slices.Clip(o.Systems), "Part-HTM-no-fast")
	}
}

// sweep measures every (system, thread count) cell of a figure into its two
// tables: the projection onto N cores first (the paper's machines are
// multicore), then the raw single-host measurement for transparency.
func (o *Options) sweep(metric string, measure func(name string, threads int) (proj, raw float64)) *Result {
	proj := Table{Title: "projected on N cores", Metric: metric, Threads: o.Threads}
	raw := Table{Title: "raw on this host", Metric: metric, Threads: o.Threads}
	for _, name := range o.Systems {
		var pv, rv []float64
		for _, th := range o.Threads {
			o.Trace.Mark(fmt.Sprintf("%s @%d", name, th))
			p, r := measure(name, th)
			pv, rv = append(pv, p), append(rv, r)
		}
		proj.Series = append(proj.Series, Series{System: name, Values: pv})
		raw.Series = append(raw.Series, Series{System: name, Values: rv})
	}
	proj.SortSeries()
	raw.SortSeries()
	return &Result{Tables: []Table{proj, raw}}
}

// microExp builds a throughput-vs-threads experiment.
func microExp(mk func() microBench, metric string, scale float64, mut func(*Options)) func(Options) (*Result, error) {
	return func(o Options) (*Result, error) {
		if mut != nil {
			mut(&o)
		}
		o = o.withDefaults(defaultThreads, SystemNames)
		return o.sweep(metric, func(name string, th int) (float64, float64) {
			b := mk()
			sys := o.build(name, BuildOptions{DataWords: b.words, Threads: th})
			res := Throughput(sys, b.bind(sys, th), th, o.Duration, o.Seed)
			o.progressf("%s @%d threads: %.0f tx/s", name, th, res.OpsPerSec)
			return res.Projected / scale, res.OpsPerSec / scale
		}), nil
	}
}

// ---------------------------------------------------------------------------
// STAMP experiments (Figure 5): speed-up over sequential execution

func stampExp(mk func() stamp.App) func(Options) (*Result, error) {
	return func(o Options) (*Result, error) {
		o = o.withDefaults(defaultThreads, SystemNames)
		return o.sweep("speedup vs sequential", func(name string, th int) (float64, float64) {
			res := o.Speedup(mk, name, th)
			return res.Projected, res.Raw
		}), nil
	}
}

// ---------------------------------------------------------------------------
// Table 1

func runTable1(o Options) (*Result, error) {
	o = o.withDefaults([]int{4}, []string{"HTM-GL", "Part-HTM"})
	threads := o.Threads[0]
	res := &Result{Notes: []string{fmt.Sprintf(
		"# Table 1: Labyrinth @%d threads — %% of HTM aborts and %% of committed transactions", threads)}}
	for _, name := range o.Systems {
		app := labyrinth.New(labyrinth.Default())
		o.Trace.Mark(fmt.Sprintf("table1 %s @%d", name, threads))
		sys := o.build(name, BuildOptions{DataWords: app.MemWords(), Threads: threads})
		app.Setup(sys)
		app.Run(threads)
		if err := app.Validate(); err != nil {
			return nil, fmt.Errorf("table1: %s: %w", name, err)
		}
		res.Reports = append(res.Reports, o.report(name, threads, sys))
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Chaos experiment: behaviour under injected hardware faults

// chaosSystems are the engine-backed systems the chaos sweep compares
// (pure-software systems have no hardware to fail).
var chaosSystems = []string{"HTM-GL", "NOrecRH", "Part-HTM", "Part-HTM-O"}

// chaosFaultConfig maps one scalar fault rate onto the injector: hardware
// begins fail with an unexplained (Other) abort at the given rate, hardware
// commits are killed by a conflict at a quarter of it — NOrecRH's reduced
// commit retries conflicts, so the commit rate must stay well below 1 —
// ring publications fail at the full rate, lock-signature reads at a
// quarter, and the timer quantum jitters by ±20%. Nil when the rate is
// zero: the zero row of the sweep runs with no injector installed at all.
func chaosFaultConfig(rate float64, seed int64) *fault.Config {
	if rate <= 0 {
		return nil
	}
	cfg := &fault.Config{Seed: seed, QuantumJitter: 0.2}
	cfg.Rates[fault.SiteHTMBegin] = fault.SiteRate{Prob: rate, Reason: abort.Other}
	cfg.Rates[fault.SiteHTMCommit] = fault.SiteRate{Prob: rate / 4, Reason: abort.Conflict}
	cfg.Rates[fault.SiteRingPub] = fault.SiteRate{Prob: rate, Reason: abort.Conflict}
	cfg.Rates[fault.SiteLockSigRead] = fault.SiteRate{Prob: rate / 4, Reason: abort.Conflict}
	return cfg
}

// runChaos sweeps fault rates over a partitioned N-Reads M-Writes workload
// and reports, per system and rate, the throughput, the commit-path split,
// and the robustness counters: injected faults absorbed, contention-manager
// escalations and watchdog alarms.
func runChaos(o Options) (*Result, error) {
	o = o.withDefaults([]int{4}, chaosSystems)
	threads := o.Threads[0]
	rates := []float64{0, 0.02, 0.1, 0.3, 1.0}
	if o.FaultRate > 0 {
		rates = []float64{0, o.FaultRate}
	}
	cfg := nrmw.Config{ArraySize: 65536, N: 64, M: 16, PartitionEvery: 16}
	out := &Result{Notes: []string{fmt.Sprintf(
		"# Chaos: injected hardware faults, N-Reads M-Writes N=%d M=%d @%d threads",
		cfg.N, cfg.M, threads)}}
	for _, name := range o.Systems {
		for _, rate := range rates {
			o.Trace.Mark(fmt.Sprintf("chaos %s rate=%g", name, rate))
			sys := o.build(name, BuildOptions{
				DataWords: cfg.MemWords(), Threads: threads,
				Fault: chaosFaultConfig(rate, o.Seed),
			})
			b := nrmw.New(sys, threads, cfg)
			op := func(th int, rng *rand.Rand) { b.Op(th, rng) }
			res := Throughput(sys, op, threads, o.Duration, o.Seed)
			o.progressf("chaos %s rate=%g: %.0f tx/s", name, rate, res.OpsPerSec)
			rep := o.report(name, threads, sys)
			rep.FaultRate, rep.Throughput = rate, &res
			out.Reports = append(out.Reports, rep)
		}
	}
	return out, nil
}
