// Package yada re-implements the transaction shape of STAMP's yada
// (Yet Another Delaunay Application): mesh refinement where each
// transaction takes a "bad" element from a shared work queue, collects the
// retriangulation cavity around it (a neighbourhood read of a few dozen
// shared records), rewrites every record in the cavity, and may push a
// newly created bad element back onto the queue.
//
// Cavities of nearby elements overlap, so transactions are long AND
// genuinely conflicting — the workload of Figure 5(h), where every system
// struggles and Part-HTM degrades the least.
package yada

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// Element record layout (one cache line):
// [quality, version, n0, n1, n2] — three neighbour links (index+1; 0 none).
const (
	offQuality = 0
	offVersion = 1
	offNbr     = 2
	numNbr     = 3
)

// Config describes a yada instance.
type Config struct {
	Elements    int
	InitialBad  int
	CavityDepth int // neighbourhood radius of a retriangulation
	RespawnPc   int // percent chance a refinement creates a new bad element
	// WorkPerElem is the geometric computation (cycles) per cavity element
	// — the circumcircle tests and re-triangulation arithmetic. It is what
	// makes yada's transactions long enough to exhaust the timer quantum,
	// the paper's Figure 5(h) profile.
	WorkPerElem int64
	Seed        int64
}

// Default is a scaled-down equivalent of STAMP yada on ttimeu10000.2:
// cavities of ~25-45 elements whose per-element work pushes a whole
// cavity past the hardware timer quantum, with heavy overlap between
// neighbouring cavities.
func Default() Config {
	return Config{Elements: 2048, InitialBad: 256, CavityDepth: 3,
		RespawnPc: 25, WorkPerElem: 6000, Seed: 61}
}

// App is a yada instance.
type App struct {
	cfg Config
	sys tm.System

	elems mem.Addr // Elements line-sized records
	// Shared work queue of bad element ids (fixed ring, head/tail words on
	// separate lines).
	queue mem.Addr
	qhead mem.Addr
	qtail mem.Addr
	qcap  uint64

	processed mem.Addr // refinement counter (own line)
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "yada" }

// queueCap bounds the total number of work items ever enqueued: every
// initial bad element spawns at most a geometric number of successors, and
// the ring never wraps past its capacity because slots are never reused.
func (c Config) queueCap() int { return c.Elements * 4 }

// MemWords implements stamp.App.
func (a *App) MemWords() int {
	return a.cfg.Elements*mem.LineWords + a.cfg.queueCap() + 16*mem.LineWords
}

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	cfg := a.cfg
	m := sys.Memory()
	a.elems = m.AllocAligned(cfg.Elements * mem.LineWords)
	a.qcap = uint64(cfg.queueCap())
	a.queue = m.AllocAligned(int(a.qcap))
	a.qhead = m.AllocLines(1)
	a.qtail = m.AllocLines(1)
	a.processed = m.AllocLines(1)

	rng := rand.New(rand.NewSource(cfg.Seed))
	// Mesh topology: a random 3-regular-ish neighbourhood graph with
	// locality (neighbours are nearby indices), so cavities overlap.
	for e := 0; e < cfg.Elements; e++ {
		rec := a.elem(e)
		m.Store(rec+offQuality, 1) // good
		for n := 0; n < numNbr; n++ {
			delta := rng.Intn(17) - 8
			nb := e + delta
			if nb < 0 || nb >= cfg.Elements || nb == e {
				m.Store(rec+offNbr+mem.Addr(n), 0)
			} else {
				m.Store(rec+offNbr+mem.Addr(n), uint64(nb)+1)
			}
		}
	}
	// Seed the queue with distinct bad elements.
	bad := rng.Perm(cfg.Elements)[:cfg.InitialBad]
	for i, e := range bad {
		m.Store(a.elem(e)+offQuality, 0) // bad
		m.Store(a.queue+mem.Addr(i), uint64(e)+1)
	}
	m.Store(a.qtail, uint64(len(bad)))
}

func (a *App) elem(e int) mem.Addr { return a.elems + mem.Addr(e*mem.LineWords) }

// Run implements stamp.App: threads refine until the queue drains.
func (a *App) Run(threads int) {
	perthread.Run(threads, func(id int) {
		for a.refineOne(id) {
		}
	})
}

// refineOne pops one bad element and retriangulates its cavity. It returns
// false when the queue is empty.
func (a *App) refineOne(id int) bool {
	cfg := a.cfg
	var progress bool
	a.sys.Atomic(id, func(x tm.Tx) {
		progress = false
		h := x.Read(a.qhead)
		t := x.Read(a.qtail)
		if h >= t {
			return // drained
		}
		x.Write(a.qhead, h+1)
		e := int(x.Read(a.queue+mem.Addr(h%a.qcap))) - 1
		progress = true

		// Collect the cavity: BFS over neighbour links to CavityDepth,
		// paying the geometric tests per discovered element.
		cavity := []int{e}
		seen := map[int]bool{e: true}
		frontier := []int{e}
		for d := 0; d < cfg.CavityDepth; d++ {
			var next []int
			for _, c := range frontier {
				rec := a.elem(c)
				for n := 0; n < numNbr; n++ {
					nb := int(x.Read(rec + offNbr + mem.Addr(n)))
					if nb == 0 {
						continue
					}
					nb--
					if !seen[nb] {
						seen[nb] = true
						x.Work(cfg.WorkPerElem)
						cavity = append(cavity, nb)
						next = append(next, nb)
					}
				}
			}
			frontier = next
		}
		x.Pause()
		// Retriangulate: rewrite every cavity record.
		var respawn int = -1
		for i, c := range cavity {
			rec := a.elem(c)
			ver := x.Read(rec + offVersion)
			x.Write(rec+offVersion, ver+1)
			x.Write(rec+offQuality, 1)
			// Deterministic-respawn decision from transactional state.
			if respawn < 0 && cfg.RespawnPc > 0 &&
				int((ver+uint64(c))%100) < cfg.RespawnPc && i > 0 {
				respawn = c
			}
		}
		if respawn >= 0 {
			tl := x.Read(a.qtail)
			if tl < a.qcap {
				// Mark bad only if the work item fits the ring, so the
				// drained-queue invariant (no bad elements left) holds.
				x.Write(a.elem(respawn)+offQuality, 0)
				x.Write(a.queue+mem.Addr(tl%a.qcap), uint64(respawn)+1)
				x.Write(a.qtail, tl+1)
			}
		}
		x.Write(a.processed, x.Read(a.processed)+1)
	})
	return progress
}

// Validate implements stamp.App: the queue drained, every element is good,
// and the processed counter equals the number of enqueued items.
func (a *App) Validate() error {
	m := a.sys.Memory()
	h, t := m.Load(a.qhead), m.Load(a.qtail)
	if h != t {
		return fmt.Errorf("yada: queue not drained (head %d, tail %d)", h, t)
	}
	if got := m.Load(a.processed); got != h {
		return fmt.Errorf("yada: processed %d, dequeued %d", got, h)
	}
	for e := 0; e < a.cfg.Elements; e++ {
		if m.Load(a.elem(e)+offQuality) != 1 {
			return fmt.Errorf("yada: element %d still bad after drain", e)
		}
	}
	return nil
}
