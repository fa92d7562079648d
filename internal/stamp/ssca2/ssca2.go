// Package ssca2 re-implements the kernel of STAMP's SSCA2 benchmark:
// parallel graph construction, where each edge insertion appends to the
// endpoint's adjacency array inside a tiny transaction. Transactions are
// very short and contend only when two edges hit the same vertex —
// the low-contention, HTM-friendly shape of Figure 5(c).
package ssca2

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// Config describes an SSCA2 instance.
type Config struct {
	Nodes     int
	Edges     int
	MaxDegree int // adjacency capacity per node
	Seed      int64
}

// Default returns a configuration comparable (scaled down) to STAMP's
// ssca2 -s13.
func Default() Config {
	return Config{Nodes: 4096, Edges: 16384, MaxDegree: 64, Seed: 21}
}

// App is an SSCA2 instance.
type App struct {
	cfg Config
	sys tm.System

	edges [][2]int // pre-generated edge list (immutable input)

	// Per node, a line-aligned block: [degree, slot_0 .. slot_{MaxDegree-1}].
	adj       mem.Addr
	blockSize int

	dropped atomic.Uint64 // edges skipped because a node hit MaxDegree
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "ssca2" }

func (c Config) blockSize() int {
	return (c.MaxDegree + 1 + mem.LineWords - 1) / mem.LineWords * mem.LineWords
}

// MemWords implements stamp.App.
func (a *App) MemWords() int {
	return a.cfg.Nodes*a.cfg.blockSize() + 4*mem.LineWords
}

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	a.blockSize = a.cfg.blockSize()
	a.adj = sys.Memory().AllocAligned(a.cfg.Nodes * a.blockSize)
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	a.edges = make([][2]int, a.cfg.Edges)
	for i := range a.edges {
		u := rng.Intn(a.cfg.Nodes)
		v := rng.Intn(a.cfg.Nodes)
		a.edges[i] = [2]int{u, v}
	}
}

func (a *App) node(u int) mem.Addr { return a.adj + mem.Addr(u*a.blockSize) }

// Run implements stamp.App: threads insert disjoint chunks of the edge
// list; each insertion is one transaction on the target node's block.
func (a *App) Run(threads int) {
	perthread.Chunks(threads, len(a.edges), func(id, lo, hi int) {
		maxDeg := uint64(a.cfg.MaxDegree)
		for i := lo; i < hi; i++ {
			u, v := a.edges[i][0], a.edges[i][1]
			base := a.node(u)
			full := false
			a.sys.Atomic(id, func(x tm.Tx) {
				full = false
				deg := x.Read(base)
				if deg >= maxDeg {
					full = true
					return
				}
				x.Write(base+1+mem.Addr(deg), uint64(v)+1)
				x.Write(base, deg+1)
			})
			if full {
				a.dropped.Add(1)
			}
		}
	})
}

// Validate implements stamp.App: every inserted slot is populated, degrees
// are within bounds, and inserted+dropped equals the input edge count.
func (a *App) Validate() error {
	m := a.sys.Memory()
	var total uint64
	for u := 0; u < a.cfg.Nodes; u++ {
		deg := m.Load(a.node(u))
		if deg > uint64(a.cfg.MaxDegree) {
			return fmt.Errorf("ssca2: node %d degree %d exceeds cap", u, deg)
		}
		for s := uint64(0); s < deg; s++ {
			if m.Load(a.node(u)+1+mem.Addr(s)) == 0 {
				return fmt.Errorf("ssca2: node %d slot %d empty below degree", u, s)
			}
		}
		total += deg
	}
	if want := uint64(a.cfg.Edges) - a.dropped.Load(); total != want {
		return fmt.Errorf("ssca2: total degree %d, want %d (%d dropped)", total, want, a.dropped.Load())
	}
	return nil
}
