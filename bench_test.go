// One testing.B benchmark per table and figure of the paper's evaluation.
//
// Each BenchmarkFigXY/SYSTEM measures committed transactions (b.N of them)
// of that figure's workload on that system at 4 threads; BenchmarkTable1
// measures whole labyrinth runs. The parthtm-bench command produces the
// full thread sweeps; these benchmarks give the per-system single numbers
// `go test -bench` users expect, plus ablation benchmarks for the design
// decisions called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bench/eigen"
	"repro/internal/bench/list"
	"repro/internal/bench/nrmw"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/harness"
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

const benchThreads = 4

func maxProcs() int { return runtime.GOMAXPROCS(0) }

// benchSystems is the per-figure comparison set (kept small so a full
// -bench=. sweep stays tractable; use cmd/parthtm-bench for all six).
var benchSystems = []string{"HTM-GL", "NOrec", "Part-HTM"}

// runMicro drives ops through the harness on parallel goroutines, one
// committed transaction per b.N iteration.
func runMicro(b *testing.B, words int, bind func(sys tm.System) harness.OpFunc) {
	for _, name := range benchSystems {
		b.Run(name, func(b *testing.B) {
			sys := harness.Build(name, harness.BuildOptions{
				DataWords: words, Threads: benchThreads, PhysCores: 4, Seed: 1,
			})
			op := bind(sys)
			var ids atomic.Int64
			b.ResetTimer()
			// RunParallel spawns GOMAXPROCS*parallelism workers; ask for
			// benchThreads of them even on a single-core host.
			b.SetParallelism((benchThreads + maxProcs() - 1) / maxProcs())
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1)-1) % benchThreads
				rng := rand.New(rand.NewSource(int64(id) + 42))
				for pb.Next() {
					op(id, rng)
				}
			})
		})
	}
}

func benchNRMW(b *testing.B, cfg nrmw.Config) {
	runMicro(b, cfg.MemWords(), func(sys tm.System) harness.OpFunc {
		w := nrmw.New(sys, benchThreads, cfg)
		return func(th int, rng *rand.Rand) { w.Op(th, rng) }
	})
}

func BenchmarkFig3aNReadsMWrites(b *testing.B) { benchNRMW(b, nrmw.Fig3a()) }

func BenchmarkFig3bBigReadSet(b *testing.B) {
	cfg := nrmw.Fig3b()
	// Scale the per-transaction read count down so one iteration stays
	// benchmark-sized; the read set still exceeds the L1.
	cfg.N = 20000
	benchNRMW(b, cfg)
}

func BenchmarkFig3cLongTransactions(b *testing.B) { benchNRMW(b, nrmw.Fig3c()) }

func benchList(b *testing.B, cfg list.Config) {
	cfg.Capacity = cfg.Size + 1_200_000
	runMicro(b, cfg.MemWords(), func(sys tm.System) harness.OpFunc {
		l := list.New(sys, cfg)
		return func(th int, rng *rand.Rand) { l.Op(th, rng) }
	})
}

func BenchmarkFig4aList1K(b *testing.B)  { benchList(b, list.Fig4a()) }
func BenchmarkFig4bList10K(b *testing.B) { benchList(b, list.Fig4b()) }

func benchEigen(b *testing.B, cfg eigen.Config) {
	runMicro(b, cfg.MemWords(), func(sys tm.System) harness.OpFunc {
		w := eigen.New(sys, benchThreads, cfg)
		return func(th int, rng *rand.Rand) { w.Op(th, rng) }
	})
}

func BenchmarkFig6aEigenMixed(b *testing.B) { benchEigen(b, eigen.Fig6a()) }

func BenchmarkFig6bEigenContended(b *testing.B) {
	cfg := eigen.Fig6b()
	cfg.Reads = 2000 // keep one iteration benchmark-sized
	benchEigen(b, cfg)
}

// benchStamp measures whole application runs (the Figure 5 unit of work).
func benchStamp(b *testing.B, mk func() stamp.App) {
	for _, name := range benchSystems {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app := mk()
				sys := harness.Build(name, harness.BuildOptions{
					DataWords: app.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
				})
				app.Setup(sys)
				app.Run(benchThreads)
				if err := app.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5aKmeansLow(b *testing.B) {
	benchStamp(b, func() stamp.App { return kmeans.New(kmeans.LowContention()) })
}

func BenchmarkFig5bKmeansHigh(b *testing.B) {
	benchStamp(b, func() stamp.App { return kmeans.New(kmeans.HighContention()) })
}

func BenchmarkFig5cSSCA2(b *testing.B) {
	benchStamp(b, func() stamp.App { return ssca2.New(ssca2.Default()) })
}

func BenchmarkFig5dLabyrinth(b *testing.B) {
	benchStamp(b, func() stamp.App { return labyrinth.New(labyrinth.Default()) })
}

func BenchmarkFig5eIntruder(b *testing.B) {
	benchStamp(b, func() stamp.App { return intruder.New(intruder.Default()) })
}

func BenchmarkFig5fVacationLow(b *testing.B) {
	benchStamp(b, func() stamp.App { return vacation.New(vacation.LowContention()) })
}

func BenchmarkFig5gVacationHigh(b *testing.B) {
	benchStamp(b, func() stamp.App { return vacation.New(vacation.HighContention()) })
}

func BenchmarkFig5hYada(b *testing.B) {
	benchStamp(b, func() stamp.App { return yada.New(yada.Default()) })
}

func BenchmarkFig5iGenome(b *testing.B) {
	benchStamp(b, func() stamp.App { return genome.New(genome.Default()) })
}

// BenchmarkTable1Labyrinth measures the Table 1 scenario (whole labyrinth
// runs at 4 threads) for the two compared systems.
func BenchmarkTable1Labyrinth(b *testing.B) {
	for _, name := range []string{"HTM-GL", "Part-HTM"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app := labyrinth.New(labyrinth.Default())
				sys := harness.Build(name, harness.BuildOptions{
					DataWords: app.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
				})
				app.Setup(sys)
				app.Run(benchThreads)
				if err := app.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures the cost of event tracing on the Fig 3(a)
// workload: "off" is the baseline (no sink attached — the per-event check
// is one nil comparison), "on" records the full event stream and latency
// histograms. Compare the two to verify tracing-off stays within noise and
// to see the price of leaving tracing enabled.
func BenchmarkTraceOverhead(b *testing.B) {
	cfg := nrmw.Fig3a()
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			opts := harness.BuildOptions{
				DataWords: cfg.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
			}
			if mode == "on" {
				opts.Trace = trace.NewSink(0)
			}
			sys := harness.Build("Part-HTM", opts)
			w := nrmw.New(sys, benchThreads, cfg)
			var ids atomic.Int64
			b.ResetTimer()
			b.SetParallelism((benchThreads + maxProcs() - 1) / maxProcs())
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1)-1) % benchThreads
				rng := rand.New(rand.NewSource(int64(id) + 42))
				for pb.Next() {
					w.Op(id, rng)
				}
			})
		})
	}
}

// BenchmarkGovernorOverhead measures the cost of the resource governor on
// the Fig 3(a) workload: "off" is the ungoverned baseline, "on" attaches a
// default-config governor (breaker armed) so every transaction pays the
// Begin/Finish hooks. Compare the two to pin the attached-but-idle price
// at a few branches per transaction. No CI gate holds this edge: the
// benchmark module reports the same price on small-fast as its
// governor.attached_overhead row.
func BenchmarkGovernorOverhead(b *testing.B) {
	cfg := nrmw.Fig3a()
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			opts := harness.BuildOptions{
				DataWords: cfg.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
			}
			if mode == "on" {
				gcfg := governor.DefaultConfig()
				opts.Governor = &gcfg
			}
			sys := harness.Build("Part-HTM", opts)
			w := nrmw.New(sys, benchThreads, cfg)
			var ids atomic.Int64
			b.ResetTimer()
			b.SetParallelism((benchThreads + maxProcs() - 1) / maxProcs())
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1)-1) % benchThreads
				rng := rand.New(rand.NewSource(int64(id) + 42))
				for pb.Next() {
					w.Op(id, rng)
				}
			})
		})
	}
}

// BenchmarkProfOverhead measures the cost of the abort-attribution
// profiler on the Fig 3(a) workload: "off" is the unprofiled baseline
// (each hook is one nil check on the cached shard pointer), "on" attaches
// a default-config profile so every transaction records its footprint and
// every doom attributes its line. Compare the two to see the price of
// leaving attribution enabled; the benchmark module reports the same price
// on small-fast as its prof.attached_overhead row, and no CI gate holds it.
func BenchmarkProfOverhead(b *testing.B) {
	cfg := nrmw.Fig3a()
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			opts := harness.BuildOptions{
				DataWords: cfg.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
			}
			if mode == "on" {
				opts.Profile = prof.New(prof.Config{})
			}
			sys := harness.Build("Part-HTM", opts)
			w := nrmw.New(sys, benchThreads, cfg)
			var ids atomic.Int64
			b.ResetTimer()
			b.SetParallelism((benchThreads + maxProcs() - 1) / maxProcs())
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1)-1) % benchThreads
				rng := rand.New(rand.NewSource(int64(id) + 42))
				for pb.Next() {
					w.Op(id, rng)
				}
			})
		})
	}
}

// BenchmarkObsOverhead measures the cost of the flight recorder on the
// Fig 3(a) workload: "off" is the unobserved baseline, "on" registers the
// system (with trace sink and profile attached, as -flight runs) and runs
// a flight recorder polling the registry at its default 10ms cadence while
// the workload runs — the worst realistic observer
// load. The workers never touch obs state; the only possible cost is
// cache pressure from the poller reading the shared counter cells, which
// must stay within noise of the tracing-on baseline.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := nrmw.Fig3a()
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			opts := harness.BuildOptions{
				DataWords: cfg.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
				Trace: trace.NewSink(0), Profile: prof.New(prof.Config{}),
			}
			if mode == "on" {
				opts.Obs = obs.NewRegistry()
			}
			sys := harness.Build("Part-HTM", opts)
			if mode == "on" {
				rec := obs.NewFlightRecorder(opts.Obs, obs.FlightConfig{Dir: b.TempDir()})
				rec.Start()
				defer rec.Stop()
			}
			w := nrmw.New(sys, benchThreads, cfg)
			var ids atomic.Int64
			b.ResetTimer()
			b.SetParallelism((benchThreads + maxProcs() - 1) / maxProcs())
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1)-1) % benchThreads
				rng := rand.New(rand.NewSource(int64(id) + 42))
				for pb.Next() {
					w.Op(id, rng)
				}
			})
		})
	}
}

// BenchmarkObsSample pins the sampling path itself: one coherent sample
// of a fully-instrumented system must stay allocation-free (the ReportAllocs
// line is the contract the flight recorder's steady state depends on).
func BenchmarkObsSample(b *testing.B) {
	cfg := nrmw.Fig3a()
	reg := obs.NewRegistry()
	sys := harness.Build("Part-HTM", harness.BuildOptions{
		DataWords: cfg.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1,
		Trace: trace.NewSink(0), Profile: prof.New(prof.Config{}), Obs: reg,
	})
	w := nrmw.New(sys, benchThreads, cfg)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		w.Op(0, rng)
	}
	var snap obs.Snapshot
	reg.Sample(&snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Sample(&snap)
	}
}

// Ablation benchmarks (DESIGN.md §5): Part-HTM configuration variants on a
// partition-heavy workload.
func benchCoreVariant(b *testing.B, mut func(*core.Config)) {
	cfg := core.DefaultConfig()
	cfg.NoFastPath = true
	if mut != nil {
		mut(&cfg)
	}
	ecfg := eigen.Config{HotWords: 4096, Reads: 200, Writes: 20,
		Disjoint: false, PartitionEvery: 32}
	sys := harness.Build("Part-HTM", harness.BuildOptions{
		DataWords: ecfg.MemWords(), Threads: benchThreads, PhysCores: 4, Seed: 1, Core: &cfg,
	})
	w := eigen.New(sys, benchThreads, ecfg)
	var ids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(ids.Add(1)-1) % benchThreads
		rng := rand.New(rand.NewSource(int64(id) + 7))
		for pb.Next() {
			w.Op(id, rng)
		}
	})
}

func BenchmarkAblationValidateEverySub(b *testing.B) {
	benchCoreVariant(b, nil)
}

func BenchmarkAblationValidateEndOnly(b *testing.B) {
	benchCoreVariant(b, func(c *core.Config) { c.ValidateEverySub = false })
}

func BenchmarkAblationLockAtSubCommit(b *testing.B) {
	benchCoreVariant(b, nil)
}

func BenchmarkAblationLockPerWrite(b *testing.B) {
	benchCoreVariant(b, func(c *core.Config) { c.LockPerWrite = true })
}

func BenchmarkAblationRing1024(b *testing.B) {
	benchCoreVariant(b, nil)
}

func BenchmarkAblationRing16(b *testing.B) {
	benchCoreVariant(b, func(c *core.Config) { c.RingSize = 16 })
}

// BenchmarkAblationRedoLast contrasts Part-HTM's eager partitioning with an
// SpHT-style scheme whose last sub-transaction carries the whole write set
// (emulated by removing partition points from a write-capacity-bound
// transaction — the final footprint is what matters).
func BenchmarkAblationRedoLast(b *testing.B) {
	for _, variant := range []struct {
		name           string
		partitionEvery int
	}{{"eager-partitioned", 128}, {"redo-last-subtx", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := nrmw.Config{ArraySize: 65536, N: 8, M: 1400,
				PartitionEvery: variant.partitionEvery}
			coreCfg := core.DefaultConfig()
			coreCfg.AutoPartition = variant.partitionEvery > 0
			sys := harness.Build("Part-HTM", harness.BuildOptions{
				DataWords: cfg.MemWords(), Threads: benchThreads, PhysCores: 4,
				Seed: 1, Core: &coreCfg,
			})
			w := nrmw.New(sys, benchThreads, cfg)
			var ids atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1)-1) % benchThreads
				rng := rand.New(rand.NewSource(int64(id) + 3))
				for pb.Next() {
					w.Op(id, rng)
				}
			})
		})
	}
}
