package domwrite

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

func newSystem(t *testing.T, domains, threads int, words int) *core.System {
	t.Helper()
	ecfg := htm.DefaultConfig()
	ecfg.Quantum = 0
	ecfg.ReadEvictProb = 0
	cfg := core.DefaultConfig()
	cfg.NoFastPath = true
	cfg.Domains = domains
	eng := htm.New(mem.New(words), ecfg)
	return core.New(eng, threads, cfg)
}

// TestConservation runs the workload concurrently on sharded and
// single-domain topologies and checks the books: the grand total over both
// arrays must equal the committed write count exactly (every committed
// transaction adds Writes, plus one when it went cross-domain).
func TestConservation(t *testing.T) {
	for _, nd := range []int{1, 4} {
		cfg := Default(nd, 4)
		cfg.LinesPerThread = 16
		cfg.Cross = 0.3
		sys := newSystem(t, nd, 4, cfg.MemWords()+1<<17)
		b := New(sys, cfg)

		const opsPerThread = 300
		perthread.Run(4, func(th int) {
			rng := rand.New(rand.NewSource(int64(th + 1)))
			for i := 0; i < opsPerThread; i++ {
				b.Op(th, rng)
			}
		})

		// 4 threads * opsPerThread transactions, Writes increments each,
		// plus one per cross transaction. Recompute the expected total from
		// the same deterministic per-thread rng streams.
		var want uint64
		for th := 0; th < 4; th++ {
			rng := rand.New(rand.NewSource(int64(th + 1)))
			for i := 0; i < opsPerThread; i++ {
				rng.Intn(16 * mem.LineWords) // start
				cross := cfg.Cross > 0 && rng.Float64() < cfg.Cross
				rng.Intn(16 * mem.LineWords) // crossIdx
				want += uint64(cfg.Writes)
				if cross {
					want++
				}
			}
		}
		if got := b.Sum(); got != want {
			t.Fatalf("nd=%d: sum=%d want=%d", nd, got, want)
		}
	}
}

// TestRoutedAllocation: on a sharded system the home array of thread t
// lives in domain t mod N and the away array in the next domain; on a
// single-domain system everything routes to domain 0.
func TestRoutedAllocation(t *testing.T) {
	cfg := Default(4, 4)
	cfg.LinesPerThread = 8
	sys := newSystem(t, 4, 4, cfg.MemWords()+1<<17)
	b := New(sys, cfg)
	ds := sys.DomainSet()
	for th := 0; th < 4; th++ {
		if got, want := ds.Of(b.home[th]), th%4; got != want {
			t.Fatalf("home[%d] in domain %d, want %d", th, got, want)
		}
		if got, want := ds.Of(b.away[th]), (th+1)%4; got != want {
			t.Fatalf("away[%d] in domain %d, want %d", th, got, want)
		}
	}
}

// TestFallbackAllocation: a system without matching sharding (here: the
// bench asks for 4 domains on a 1-domain system) falls back to plain
// allocation and still runs.
func TestFallbackAllocation(t *testing.T) {
	cfg := Default(4, 2)
	cfg.LinesPerThread = 8
	sys := newSystem(t, 1, 2, cfg.MemWords()+1<<17)
	b := New(sys, cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		b.Op(0, rng)
	}
	if b.Sum() == 0 {
		t.Fatal("fallback system committed nothing")
	}
}

var _ tm.System = (*core.System)(nil)
