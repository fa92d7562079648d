// Labyrinth example: maze routing with transactions that cannot fit in
// best-effort HTM (the paper's §2 motivating application, Table 1).
//
// Routes a batch of source→destination requests on a shared grid with four
// threads, comparing HTM-GL and Part-HTM, and prints each system's abort
// breakdown — reproducing in miniature the resource-failure profile that
// motivates partitioning.
//
// Run with: go run ./examples/labyrinth
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/stamp/labyrinth"
	"repro/internal/tm"
)

const threads = 4

func run(name string, mk func(words int) (tm.System, *htm.Engine)) {
	app := labyrinth.New(labyrinth.Default())
	sys, eng := mk(app.MemWords() + 1<<18)
	app.Setup(sys)
	start := time.Now()
	app.Run(threads)
	elapsed := time.Since(start)
	if err := app.Validate(); err != nil {
		panic(err)
	}
	es := eng.Stats()
	st := sys.Stats().Snapshot()
	fmt.Printf("%-10s %6.2fs | routed=%d failed=%d | commits HTM=%d SW=%d GL=%d | HTM aborts: conflict=%d capacity=%d other=%d\n",
		name, elapsed.Seconds(), app.Routed(), app.Failed(),
		st.CommitsHTM, st.CommitsSW, st.CommitsGL,
		es.AbortsConflict.Load(), es.AbortsCapacity.Load(), es.AbortsOther.Load())
}

func main() {
	cfg := labyrinth.Default()
	fmt.Printf("maze routing: %dx%d grid, %d requests, %d threads\n",
		cfg.W, cfg.H, cfg.Pairs, threads)
	run("HTM-GL", func(words int) (tm.System, *htm.Engine) {
		eng := htm.New(mem.New(words), htm.DefaultConfig())
		return htmgl.New(eng, threads, htmgl.DefaultConfig()), eng
	})
	run("Part-HTM", func(words int) (tm.System, *htm.Engine) {
		eng := htm.New(mem.New(words), htm.DefaultConfig())
		return core.New(eng, threads, core.DefaultConfig()), eng
	})
}
