// Contention example: the Figure 6(b) scenario in miniature.
//
// Transactions read a large slice of a hot shared array and write a few
// slots of it — big, contended transactions. Under HTM-GL they thrash:
// too big for one hardware transaction, so they serialize behind the
// global lock. Part-HTM's sub-HTM transactions commit piecewise and its
// write locks briefly stall true conflictors instead of restarting
// everyone, so it keeps the highest throughput. The two STMs pay their
// per-access instrumentation on every one of the ~2K reads.
//
// Run with: go run ./examples/contention
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bench/eigen"
	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/tm"
)

const (
	threads = 8 // beyond the modelled 4 physical cores: budgets halve
	ops     = 30
)

func run(name string, sys tm.System) {
	cfg := eigen.Fig6b() // 32K hot words, 10K reads + 100 writes, 50% repeats
	b := eigen.New(sys, threads, cfg)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for i := 0; i < ops; i++ {
				b.Op(id, rng)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := sys.Stats().Snapshot()
	fmt.Printf("%-10s %8.0f tx/sec | commits: HTM=%d SW=%d GL=%d | aborts: conflict=%d capacity=%d other=%d\n",
		name, float64(threads*ops)/elapsed.Seconds(),
		st.CommitsHTM, st.CommitsSW, st.CommitsGL,
		st.AbortsConflict, st.AbortsCapacity, st.AbortsOther)
}

func main() {
	cfg := eigen.Fig6b()
	fmt.Printf("hot-array contention: %dK words, %d reads + %d writes per tx, %d threads x %d tx\n",
		cfg.HotWords/1024, cfg.Reads, cfg.Writes, threads, ops)
	const words = 1 << 18
	// Threads exceed the modelled physical cores: halve the cache budgets
	// (hyper-threading), as the harness does.
	ecfg := htm.DefaultConfig().Oversubscribed()
	run("HTM-GL", htmgl.New(htm.New(mem.New(words), ecfg), threads, htmgl.DefaultConfig()))
	run("NOrec", norec.New(mem.New(words), threads))
	run("Part-HTM", core.New(htm.New(mem.New(words), ecfg), threads, core.DefaultConfig()))
}
