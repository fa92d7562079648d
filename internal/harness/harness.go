// Package harness builds systems, runs workloads, and regenerates every
// table and figure of the paper's evaluation (see experiments.go for the
// per-experiment index).
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/norecrh"
	"repro/internal/obs"
	"repro/internal/perthread"
	"repro/internal/prof"
	"repro/internal/ring"
	"repro/internal/ringstm"
	"repro/internal/seq"
	"repro/internal/sig"
	"repro/internal/stamp"
	"repro/internal/tm"
	"repro/internal/trace"
)

// SystemNames lists every buildable system identifier in the order the
// paper's plots use.
var SystemNames = []string{
	"RingSTM", "NOrec", "NOrecRH", "HTM-GL", "Part-HTM", "Part-HTM-O",
}

// AllSystemNames additionally includes the Part-HTM-no-fast variant
// (Figure 3(b)).
var AllSystemNames = append(append([]string{}, SystemNames...), "Part-HTM-no-fast")

// BuildOptions controls how a system and its hardware model are built.
type BuildOptions struct {
	// DataWords is the simulated-memory budget the workload needs;
	// protocol metadata and (for Part-HTM-O) the lock-cell shadow are added
	// on top.
	DataWords int
	// Threads is the number of worker threads the run will use.
	Threads int
	// PhysCores models the machine: running more threads than cores halves
	// the per-transaction cache budgets (hyper-threading, as on the paper's
	// i7) — Figure 5(f)'s 4→8 thread drop. Zero disables the model.
	PhysCores int
	// Core overrides Part-HTM's configuration when non-nil (the domains
	// experiment's topology, the benchmark's no-fast-path ledger rows).
	Core *core.Config
	// Seed seeds the engine's probabilistic models.
	Seed int64
	// Fault, when non-nil, installs a deterministic fault injector on the
	// hardware engine of every engine-backed system (chaos experiments).
	// Pure-software systems ignore it.
	Fault *fault.Config
	// Trace, when non-nil, attaches the event sink to the built system's
	// execution kernel so it records transaction lifecycle events and
	// latency histograms.
	Trace *trace.Sink
	// Governor, when non-nil, attaches a fresh resource governor built from
	// this config to the kernel: the per-thread HTM circuit breaker. Read
	// it back with KernelOf(sys).Governor().
	Governor *governor.Config
	// Profile, when non-nil, attaches the abort-attribution profiler: the
	// kernel hands it back (KernelOf(sys).Profile()), and engine-backed
	// systems' hardware engine records conflict hot lines, capacity
	// overflows, and footprints into it.
	Profile *prof.Profile
	// Obs, when non-nil, registers the built system's telemetry sources —
	// its tm.Stats and the kernel's governor (if one is attached) — with
	// the flight recorder's registry under the system's name. Registration is boundary-only (it
	// runs in Build, before workers start); re-building the same system
	// name replaces its registration, so sweeps keep the live instance
	// current.
	Obs *obs.Registry
}

// metaWords is the simulated-memory slack reserved for protocol metadata
// (ring, signatures, locks).
const metaWords = 1 << 17

// domainExtraWords is the additional metadata a multi-domain Part-HTM
// topology costs beyond metaWords: each domain past the first brings its
// own ring (entries plus the timestamp line) and write-locks signature,
// and every domain's chunk-aligned allocation arena can waste up to one
// chunk of alignment slack. Zero for single-domain topologies, so their
// memory layout — and every golden result — is unchanged.
func domainExtraWords(cfg core.Config) int {
	if cfg.Domains <= 1 {
		return 0
	}
	per := core.RingSize*ring.EntryWords + mem.LineWords + sig.Lines*mem.LineWords
	return (cfg.Domains-1)*per + (cfg.Domains+1)*domain.ChunkWords
}

// engineConfig resolves the hardware model for the options.
func (o BuildOptions) engineConfig() htm.Config {
	cfg := htm.DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.PhysCores > 0 && o.Threads > o.PhysCores {
		cfg = cfg.Oversubscribed()
	}
	return cfg
}

// buildEngine constructs the hardware engine over a fresh memory of the
// given size, installing the fault injector when one is configured.
func (o BuildOptions) buildEngine(words int) *htm.Engine {
	eng := htm.New(mem.New(words), o.engineConfig())
	if o.Fault != nil {
		eng.SetInjector(fault.New(*o.Fault))
	}
	return eng
}

// Build constructs the named system over a fresh memory sized for the
// options and attaches the instruments they carry. This is the one attach
// site: every instrument goes on through the system's execution kernel
// (KernelOf), and the profiler's address-level half additionally onto the
// hardware engine (EngineOf), which records conflict lines, capacity
// overflows, and per-window footprints.
// A system without a kernel that is not the Sequential baseline is a
// wiring bug and panics rather than running uninstrumented.
func Build(name string, o BuildOptions) tm.System {
	sys := build(name, o)
	k := KernelOf(sys)
	if k == nil {
		if _, isSeq := sys.(*seq.System); !isSeq {
			panic(fmt.Sprintf("harness: system %q exposes no execution kernel to attach to", name))
		}
	} else {
		k.SetTrace(o.Trace)
		if o.Governor != nil {
			k.SetGovernor(governor.New(*o.Governor))
		}
		if o.Profile != nil {
			k.SetProfile(o.Profile)
			if eng := EngineOf(sys); eng != nil {
				eng.SetProfile(o.Profile)
			}
			// Sharded-domain topologies key abort heat by memory domain too.
			if cs, ok := sys.(*core.System); ok && cs.Domains() > 1 {
				ds := cs.DomainSet()
				o.Profile.SetDomainRouter(cs.Domains(), func(line uint32) int {
					return ds.Of(mem.Addr(line) * mem.LineWords)
				})
			} else {
				o.Profile.SetDomainRouter(0, nil)
			}
		}
	}
	if o.Obs != nil {
		// Read back what is attached rather than threading it through: the
		// registry sees exactly what the kernel runs with.
		src := obs.Source{Stats: sys.Stats()}
		if k != nil && k.Governor() != nil {
			src.Kernel = k
		}
		o.Obs.Register(name, src)
	}
	return sys
}

// KernelOf returns the execution kernel behind a system — the seam every
// instrument attaches to — or nil
// for the Sequential baseline, the only system that runs without one.
func KernelOf(sys tm.System) *exec.Runner {
	if k, ok := sys.(interface{ Kernel() *exec.Runner }); ok {
		return k.Kernel()
	}
	return nil
}

func build(name string, o BuildOptions) tm.System {
	coreCfg := core.DefaultConfig()
	if o.Core != nil {
		coreCfg = *o.Core
	}
	words := o.DataWords + metaWords + domainExtraWords(coreCfg)
	switch name {
	case "Sequential":
		return seq.New(mem.New(words))
	case "NOrec":
		return norec.New(mem.New(words), o.Threads)
	case "RingSTM":
		return ringstm.New(mem.New(words), o.Threads, core.RingSize)
	case "HTM-GL":
		return htmgl.New(o.buildEngine(words), o.Threads, htmgl.DefaultConfig())
	case "NOrecRH":
		return norecrh.New(o.buildEngine(words), o.Threads)
	case "Part-HTM":
		return core.New(o.buildEngine(words), o.Threads, coreCfg)
	case "Part-HTM-no-fast":
		cfg := coreCfg
		cfg.NoFastPath = true
		return core.New(o.buildEngine(words), o.Threads, cfg)
	case "Part-HTM-O":
		cfg := coreCfg
		cfg.Opaque = true
		// The opaque shadow occupies the top half of the memory; the owner
		// entries, a line per thread below it, come out of metaWords.
		return core.New(o.buildEngine(2*words+2*mem.LineWords), o.Threads, cfg)
	}
	panic(fmt.Sprintf("harness: unknown system %q", name))
}

// EngineOf returns the HTM engine behind a system, or nil for pure-software
// systems: every engine-backed system exposes it through an Engine()
// accessor, as every kernel-backed one does through Kernel().
func EngineOf(sys tm.System) *htm.Engine {
	if e, ok := sys.(interface{ Engine() *htm.Engine }); ok {
		return e.Engine()
	}
	return nil
}

// OpFunc executes one transaction on behalf of a thread.
type OpFunc func(thread int, rng *rand.Rand)

// ThroughputResult reports one throughput data point.
type ThroughputResult struct {
	// OpsPerSec is the raw committed-transactions-per-second as measured on
	// this host.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Projected is the Amdahl projection of OpsPerSec onto `threads` cores:
	// on a single-core host, N timesharing threads measure total work, and
	// the measured globally-serial time (tm.Stats.SerialNanos) is the part
	// that would not parallelize. Estimated N-core wall time is
	// serial + (measured-serial)/N. On a host with as many cores as
	// threads, Projected converges to OpsPerSec.
	Projected float64 `json:"projected"`
}

// Throughput drives op from the given number of threads for roughly the
// given duration (after a warm-up of a tenth of it) and returns committed
// operations per second, raw and projected (see ThroughputResult).
func Throughput(sys tm.System, op OpFunc, threads int, duration time.Duration, seed int64) ThroughputResult {
	warm := duration / 10
	run := func(d time.Duration) uint64 {
		// One result slot per worker, summed after the join: no mutex on
		// the result path, no shared cache line during the run.
		counts := make([]uint64, threads)
		deadline := time.Now().Add(d)
		perthread.Run(threads, func(id int) {
			rng := rand.New(rand.NewSource(seed + int64(id)*6151))
			var n uint64
			for {
				op(id, rng)
				n++
				// Checking the clock every iteration makes the timing
				// syscall dominate short transactions; every 64 ops is
				// accurate to well under the warm-up slack.
				if n&63 == 0 && !time.Now().Before(deadline) {
					break
				}
			}
			counts[id] = n
		})
		var total uint64
		for _, n := range counts {
			total += n
		}
		return total
	}
	if warm > 0 {
		run(warm)
	}
	serial0 := sys.Stats().SerialNanos()
	start := time.Now()
	ops := run(duration)
	wall := time.Since(start)
	serial := time.Duration(sys.Stats().SerialNanos() - serial0)
	return project(float64(ops), wall, serial, threads, runtime.GOMAXPROCS(0))
}

// project converts a measured (ops, wall, serial) triple into raw and
// projected rates.
func project(ops float64, wall, serial time.Duration, threads, hostCores int) ThroughputResult {
	raw := ops / wall.Seconds()
	if serial > wall {
		serial = wall
	}
	// The measured window already exploited hostCores of parallelism; the
	// parallelizable work in CPU-seconds is (wall - serial) * min(threads,
	// hostCores).
	effective := hostCores
	if threads < effective {
		effective = threads
	}
	parallelCPU := (wall - serial).Seconds() * float64(effective)
	projWall := serial.Seconds() + parallelCPU/float64(threads)
	if projWall <= 0 {
		return ThroughputResult{OpsPerSec: raw, Projected: raw}
	}
	return ThroughputResult{OpsPerSec: raw, Projected: ops / projWall}
}

// TimeApp times one full App run (Setup excluded) on the given system.
func TimeApp(app stamp.App, sys tm.System, threads int) time.Duration {
	app.Setup(sys)
	start := time.Now()
	app.Run(threads)
	elapsed := time.Since(start)
	if err := app.Validate(); err != nil {
		panic(fmt.Sprintf("harness: %s failed validation on %s: %v", app.Name(), sys.Name(), err))
	}
	return elapsed
}

// SpeedupResult reports one speed-up data point, raw and projected (same
// model as ThroughputResult).
type SpeedupResult struct {
	Raw       float64
	Projected float64
}

// Speedup runs the app factory sequentially and then on the named system
// with the given thread count, returning seqTime/parTime (the Figure 5/6
// metric), both as measured on this host and projected onto `threads`
// cores. Both systems are built with the run's settings and instruments.
func (o *Options) Speedup(mkApp func() stamp.App, sysName string, threads int) SpeedupResult {
	seqApp := mkApp()
	seqTime := TimeApp(seqApp, o.build("Sequential", BuildOptions{DataWords: seqApp.MemWords()}), 1)

	parApp := mkApp()
	sys := o.build(sysName, BuildOptions{DataWords: parApp.MemWords(), Threads: threads})
	parTime := TimeApp(parApp, sys, threads)
	serial := time.Duration(sys.Stats().SerialNanos())
	p := project(1, parTime, serial, threads, runtime.GOMAXPROCS(0))
	projWall := 1 / p.Projected
	return SpeedupResult{
		Raw:       seqTime.Seconds() / parTime.Seconds(),
		Projected: seqTime.Seconds() / projWall,
	}
}

// Series is one plotted line: a value per thread count.
type Series struct {
	System string    `json:"system"`
	Values []float64 `json:"values"`
}

// Table is one figure's data: thread counts on the x axis, one series per
// system.
type Table struct {
	Title   string   `json:"title"`
	Metric  string   `json:"metric"`
	Threads []int    `json:"threads"`
	Series  []Series `json:"series"`
}

// Format renders the table as aligned text, one row per thread count.
func (t *Table) Format() string {
	out := fmt.Sprintf("# %s (%s)\n", t.Title, t.Metric)
	out += fmt.Sprintf("%-8s", "threads")
	for _, s := range t.Series {
		out += fmt.Sprintf("%18s", s.System)
	}
	out += "\n"
	for i, th := range t.Threads {
		out += fmt.Sprintf("%-8d", th)
		for _, s := range t.Series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			out += fmt.Sprintf("%18.3f", v)
		}
		out += "\n"
	}
	return out
}

// Best returns, per thread count, the winning system (for quick shape
// checks in tests).
func (t *Table) Best() []string {
	best := make([]string, len(t.Threads))
	for i := range t.Threads {
		bi, bv := -1, -1.0
		for si, s := range t.Series {
			if i < len(s.Values) && s.Values[i] > bv {
				bi, bv = si, s.Values[i]
			}
		}
		if bi >= 0 {
			best[i] = t.Series[bi].System
		}
	}
	return best
}

// SortSeries orders the series to match the paper's legend order.
func (t *Table) SortSeries() {
	order := map[string]int{}
	for i, n := range AllSystemNames {
		order[n] = i
	}
	sort.SliceStable(t.Series, func(i, j int) bool {
		return order[t.Series[i].System] < order[t.Series[j].System]
	})
}
