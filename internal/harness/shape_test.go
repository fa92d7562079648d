package harness

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench/eigen"
	"repro/internal/bench/list"
	"repro/internal/bench/nrmw"
	"repro/internal/tm"
)

// Shape regression tests: the paper's headline orderings, asserted with
// generous margins so scheduler noise cannot flip them. Each compares two
// systems on one workload at one thread count using the projected metric
// (the paper's machines are multicore).

// measure runs the op workload on the named system and returns the
// projected throughput.
func measure(t *testing.T, name string, words, threads int,
	bind func(sys tm.System) OpFunc) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("shape assertions are calibrated without race instrumentation")
	}
	sys := Build(name, BuildOptions{
		DataWords: words, Threads: threads, PhysCores: 4, Seed: 1,
	})
	op := bind(sys)
	return Throughput(sys, op, threads, 200*time.Millisecond, 1).Projected
}

// TestShapeFig3aHTMWinsSmallTransactions: with small hardware-friendly
// transactions, HTM-GL must clearly beat the heavyweight STM (RingSTM),
// and Part-HTM must stay within striking distance of HTM-GL.
func TestShapeFig3aHTMWinsSmallTransactions(t *testing.T) {
	cfg := nrmw.Fig3a()
	bind := func(sys tm.System) OpFunc {
		b := nrmw.New(sys, 2, cfg)
		return func(th int, rng *rand.Rand) { b.Op(th, rng) }
	}
	htmgl := measure(t, "HTM-GL", cfg.MemWords(), 2, bind)
	ringstm := measure(t, "RingSTM", cfg.MemWords(), 2, bind)
	parthtm := measure(t, "Part-HTM", cfg.MemWords(), 2, bind)
	if htmgl < 1.2*ringstm {
		t.Errorf("HTM-GL (%.0f) must clearly beat RingSTM (%.0f) on small transactions", htmgl, ringstm)
	}
	if parthtm < htmgl/3 {
		t.Errorf("Part-HTM (%.0f) fell too far behind HTM-GL (%.0f) on its worst case", parthtm, htmgl)
	}
}

// TestShapeFig4bPartHTMWinsBigLists: 10K-element list traversals exceed the
// hardware budget; Part-HTM must beat both the global-lock fallback and the
// STM.
func TestShapeFig4bPartHTMWinsBigLists(t *testing.T) {
	cfg := list.Fig4b()
	cfg.Capacity = cfg.Size + 200_000
	bind := func(sys tm.System) OpFunc {
		l := list.New(sys, cfg)
		return func(th int, rng *rand.Rand) { l.Op(th, rng) }
	}
	htmgl := measure(t, "HTM-GL", cfg.MemWords(), 4, bind)
	norec := measure(t, "NOrec", cfg.MemWords(), 4, bind)
	parthtm := measure(t, "Part-HTM", cfg.MemWords(), 4, bind)
	if parthtm < 1.2*htmgl {
		t.Errorf("Part-HTM (%.0f) must beat HTM-GL (%.0f) on resource-bound lists", parthtm, htmgl)
	}
	if parthtm < 1.2*norec {
		t.Errorf("Part-HTM (%.0f) must beat NOrec (%.0f) on resource-bound lists", parthtm, norec)
	}
}

// TestShapeFig3bPartHTMWinsBigReads: transactions reading far past the L1
// survive in hardware only while shared-cache pressure is low; beyond the
// physical cores (the paper's >8-thread regime, 12 threads here) they
// thrash under HTM-GL while Part-HTM's partitioned path keeps committing.
// The margin is Fig4b's 1.2×: with 12 threads on a 2-core host the Amdahl
// projection compresses a raw lead of 1.5–1.8× to 1.2–1.5×.
func TestShapeFig3bPartHTMWinsBigReads(t *testing.T) {
	cfg := nrmw.Fig3b()
	const threads = 12
	bind := func(sys tm.System) OpFunc {
		b := nrmw.New(sys, threads, cfg)
		return func(th int, rng *rand.Rand) { b.Op(th, rng) }
	}
	htmgl := measure(t, "HTM-GL", cfg.MemWords(), threads, bind)
	parthtm := measure(t, "Part-HTM", cfg.MemWords(), threads, bind)
	if parthtm < 1.2*htmgl {
		t.Errorf("Part-HTM (%.2f) must beat HTM-GL (%.2f) on huge read sets under pressure", parthtm, htmgl)
	}
}

// TestShapeFig6aLongTransactionsEscapeTheLock: with 50% long transactions,
// the global-lock fallback must be far behind every system that can run
// them concurrently.
func TestShapeFig6aLongTransactionsEscapeTheLock(t *testing.T) {
	cfg := eigen.Fig6a()
	bind := func(sys tm.System) OpFunc {
		b := eigen.New(sys, 4, cfg)
		return func(th int, rng *rand.Rand) { b.Op(th, rng) }
	}
	htmgl := measure(t, "HTM-GL", cfg.MemWords(), 4, bind)
	parthtm := measure(t, "Part-HTM", cfg.MemWords(), 4, bind)
	if parthtm < 2*htmgl {
		t.Errorf("Part-HTM (%.0f) must dominate HTM-GL (%.0f) on long-transaction mixes", parthtm, htmgl)
	}
}
