// Linked-list example: the Figure 4(b) scenario in miniature.
//
// A 10K-element sorted linked list is hammered with 50% updates from four
// threads, once on HTM-GL and once on Part-HTM, printing the throughput
// and path breakdown of each. Traversals read thousands of cache lines —
// past the hardware read budget — so HTM-GL degenerates to its global
// lock while Part-HTM splits each traversal into sub-HTM transactions.
//
// Run with: go run ./examples/linkedlist
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench/list"
	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

const (
	threads = 4
	ops     = 400
)

func engineConfig() htm.Config {
	cfg := htm.DefaultConfig()
	// Scale the read budget down so the 10K list's traversals exceed it
	// even single-threaded (the paper's Xeon hits this through sheer size).
	cfg.ReadLinesSoft = 512
	cfg.ReadLinesHard = 2048
	return cfg
}

func run(name string, mk func(words int) tm.System) {
	cfg := list.Fig4b()
	cfg.Capacity = cfg.Size + threads*ops
	sys := mk(cfg.MemWords() + 1<<18)
	l := list.New(sys, cfg)

	start := time.Now()
	perthread.Run(threads, func(id int) {
		rng := rand.New(rand.NewSource(int64(id) + 99))
		for i := 0; i < ops; i++ {
			l.Op(id, rng)
		}
	})
	elapsed := time.Since(start)

	if !l.Validate() {
		panic(name + ": list corrupted")
	}
	st := sys.Stats().Snapshot()
	fmt.Printf("%-10s %8.0f ops/sec | commits: HTM=%d SW=%d GL=%d | aborts: conflict=%d capacity=%d other=%d\n",
		name, float64(threads*ops)/elapsed.Seconds(),
		st.CommitsHTM, st.CommitsSW, st.CommitsGL,
		st.AbortsConflict, st.AbortsCapacity, st.AbortsOther)
}

func main() {
	fmt.Printf("sorted linked list, %d elements, 50%% updates, %d threads x %d ops\n",
		list.Fig4b().Size, threads, ops)
	run("HTM-GL", func(words int) tm.System {
		return htmgl.New(htm.New(mem.New(words), engineConfig()), threads, htmgl.DefaultConfig())
	})
	run("Part-HTM", func(words int) tm.System {
		return core.New(htm.New(mem.New(words), engineConfig()), threads, core.DefaultConfig())
	})
}
