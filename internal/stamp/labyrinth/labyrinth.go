// Package labyrinth re-implements STAMP's labyrinth: Lee-style maze
// routing on a shared grid. Each routing request is one transaction that
// flood-fills from source toward destination — reading a large region of
// the shared grid and, exactly like STAMP's private-grid-copy, writing a
// wavefront value per visited cell to a per-thread scratch region inside
// the transaction — then writes the chosen path back to the shared grid.
//
// Long routes therefore produce transactions whose write footprint (the
// scratch wavefront) exceeds the L1 write budget and whose expansion work
// exceeds the timer quantum: the resource-failure profile of Table 1
// (>90% capacity+other aborts under HTM-GL) and Figure 5(d). True
// conflicts — two routes crossing — are rare on a large grid.
package labyrinth

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// Config describes a labyrinth instance.
type Config struct {
	W, H      int
	Pairs     int // routing requests
	ShortFrac int // percent of requests with short Manhattan distance
	ShortDist int // max distance of a short request
	LongDist  int // max distance of a long request (min = ShortDist+1)
	Margin    int // bounding-box margin around (src,dst) for expansion
	WorkPer   int64
	// HeavyFrac is the percent of requests routed through "difficult
	// terrain": their per-cell work is 24 times WorkPer, so they exhaust
	// the timer quantum before the write budget (the "other" aborts of
	// Table 1).
	HeavyFrac  int
	PauseEvery int // visited cells per sub-transaction
	MaxThreads int // sizes the per-thread scratch regions
	Seed       int64
}

// Default returns the configuration used for Figure 5(d) and Table 1:
// about half of the routes exceed the hardware resource budget — the long
// ones flood a bounding box whose wavefront writes overflow the L1 write
// budget (capacity aborts), with the expansion work pushing the rest over
// the timer quantum (other aborts).
func Default() Config {
	return Config{
		W: 128, H: 128, Pairs: 96,
		ShortFrac: 35, ShortDist: 8, LongDist: 70,
		Margin: 20, WorkPer: 12, HeavyFrac: 25, PauseEvery: 256,
		MaxThreads: 16, Seed: 31,
	}
}

type pair struct {
	sx, sy, dx, dy int
	heavy          bool
}

// App is a labyrinth instance.
type App struct {
	cfg Config
	sys tm.System

	grid    mem.Addr // W*H words: 0 free, else path id
	scratch mem.Addr // MaxThreads regions of W*H words
	pairs   []pair

	nextPair atomic.Int64
	failed   atomic.Uint64
	routed   sync.Map // path id -> pair

	// per-thread reusable visited/parent buffers with generation tags
	visitGen []int32
	visit    [][]int32 // cell -> generation when visited
	parent   [][]int32 // cell -> predecessor cell + 1
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "labyrinth" }

// MemWords implements stamp.App.
func (a *App) MemWords() int {
	cells := a.cfg.W * a.cfg.H
	return (1+a.cfg.MaxThreads)*cells + 8*mem.LineWords
}

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	cfg := a.cfg
	cells := cfg.W * cfg.H
	a.grid = sys.Memory().AllocAligned(cells)
	a.scratch = sys.Memory().AllocAligned(cfg.MaxThreads * cells)
	rng := rand.New(rand.NewSource(cfg.Seed))
	a.pairs = make([]pair, cfg.Pairs)
	for i := range a.pairs {
		maxD := cfg.LongDist
		if rng.Intn(100) < cfg.ShortFrac {
			maxD = cfg.ShortDist
		}
		for {
			sx, sy := rng.Intn(cfg.W), rng.Intn(cfg.H)
			d := 1 + rng.Intn(maxD)
			ang := rng.Intn(4)
			dx, dy := sx, sy
			switch ang {
			case 0:
				dx = sx + d
			case 1:
				dx = sx - d
			case 2:
				dy = sy + d
			case 3:
				dy = sy - d
			}
			// Bend the route target to 2D.
			dy += rng.Intn(d+1) - d/2
			if dx >= 0 && dx < cfg.W && dy >= 0 && dy < cfg.H && (dx != sx || dy != sy) {
				a.pairs[i] = pair{sx: sx, sy: sy, dx: dx, dy: dy,
					heavy: rng.Intn(100) < cfg.HeavyFrac}
				break
			}
		}
	}
	a.visitGen = make([]int32, cfg.MaxThreads)
	a.visit = make([][]int32, cfg.MaxThreads)
	a.parent = make([][]int32, cfg.MaxThreads)
	for t := range a.visit {
		a.visit[t] = make([]int32, cells)
		a.parent[t] = make([]int32, cells)
	}
}

func (a *App) cell(x, y int) int { return y*a.cfg.W + x }

// Run implements stamp.App: threads pull routing requests from a shared
// work list until it is drained.
func (a *App) Run(threads int) {
	perthread.Run(threads, func(id int) {
		for {
			i := int(a.nextPair.Add(1)) - 1
			if i >= len(a.pairs) {
				return
			}
			if a.route(id, i) {
				a.routed.Store(i+1, a.pairs[i])
			} else {
				a.failed.Add(1)
			}
		}
	})
}

// route runs one routing transaction; the path id is the request index+1.
func (a *App) route(id, idx int) bool {
	cfg := a.cfg
	p := a.pairs[idx]
	pathID := uint64(idx + 1)
	src := a.cell(p.sx, p.sy)
	dst := a.cell(p.dx, p.dy)
	// Expansion bounding box.
	x0, x1 := min(p.sx, p.dx)-cfg.Margin, max(p.sx, p.dx)+cfg.Margin
	y0, y1 := min(p.sy, p.dy)-cfg.Margin, max(p.sy, p.dy)+cfg.Margin
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, cfg.W-1), min(y1, cfg.H-1)

	workPer := cfg.WorkPer
	if p.heavy {
		workPer *= 40
	}
	visit := a.visit[id]
	parent := a.parent[id]
	scratch := a.scratch + mem.Addr(id*cfg.W*cfg.H)
	ok := false

	a.sys.Atomic(id, func(x tm.Tx) {
		ok = false
		// Fresh generation for this body execution; the tag only
		// distinguishes executions of the Go-local buffers and never
		// influences which transactional operations run.
		a.visitGen[id]++
		gen := a.visitGen[id]

		if x.Read(a.grid+mem.Addr(src)) != 0 || x.Read(a.grid+mem.Addr(dst)) != 0 {
			return // endpoint already taken: unroutable
		}
		queue := make([]int32, 0, 256)
		queue = append(queue, int32(src))
		visit[src] = gen
		parent[src] = 0
		found := false
		steps := 0
		for qi := 0; qi < len(queue) && !found; qi++ {
			c := int(queue[qi])
			cx, cy := c%cfg.W, c/cfg.W
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := cx+d[0], cy+d[1]
				if nx < x0 || nx > x1 || ny < y0 || ny > y1 {
					continue
				}
				n := a.cell(nx, ny)
				if visit[n] == gen {
					continue
				}
				visit[n] = gen
				parent[n] = int32(c) + 1
				v := x.Read(a.grid + mem.Addr(n)) // shared grid read
				x.Work(workPer)                   // expansion computation
				steps++
				if cfg.PauseEvery > 0 && steps%cfg.PauseEvery == 0 {
					x.Pause()
				}
				if n == dst {
					found = true
					break
				}
				if v == 0 {
					// Wavefront write to the private copy (scratch): this
					// is the write footprint that breaks the L1 budget on
					// long routes, as in STAMP.
					x.WriteLocal(scratch+mem.Addr(n), uint64(qi)+1)
					queue = append(queue, int32(n))
				}
			}
		}
		if !found {
			return
		}
		// Write the path back to the shared grid.
		x.Pause()
		for c := dst; ; {
			x.Write(a.grid+mem.Addr(c), pathID)
			pc := parent[c]
			if pc == 0 {
				break
			}
			c = int(pc) - 1
		}
		ok = true
	})
	return ok
}

// Failed returns the number of unroutable requests.
func (a *App) Failed() uint64 { return a.failed.Load() }

// Routed returns the number of successfully routed requests.
func (a *App) Routed() int {
	n := 0
	a.routed.Range(func(_, _ any) bool { n++; return true })
	return n
}

// Validate implements stamp.App: every routed path's cells must form a
// connected region containing both endpoints, and no cell may carry an id
// that was never routed.
func (a *App) Validate() error {
	cfg := a.cfg
	m := a.sys.Memory()
	if uint64(a.Routed())+a.failed.Load() != uint64(len(a.pairs)) {
		return fmt.Errorf("labyrinth: routed %d + failed %d != %d pairs",
			a.Routed(), a.failed.Load(), len(a.pairs))
	}
	cellsByID := make(map[uint64][]int)
	for c := 0; c < cfg.W*cfg.H; c++ {
		if v := m.Load(a.grid + mem.Addr(c)); v != 0 {
			cellsByID[v] = append(cellsByID[v], c)
		}
	}
	for idv, cells := range cellsByID {
		pv, okr := a.routed.Load(int(idv))
		if !okr {
			return fmt.Errorf("labyrinth: grid carries unrouted id %d", idv)
		}
		p := pv.(pair)
		src, dst := a.cell(p.sx, p.sy), a.cell(p.dx, p.dy)
		set := make(map[int]bool, len(cells))
		for _, c := range cells {
			set[c] = true
		}
		if !set[src] || !set[dst] {
			return fmt.Errorf("labyrinth: path %d missing an endpoint", idv)
		}
		// Connectivity of the path cells.
		seen := map[int]bool{src: true}
		stack := []int{src}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cx, cy := c%cfg.W, c/cfg.W
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := cx+d[0], cy+d[1]
				if nx < 0 || nx >= cfg.W || ny < 0 || ny >= cfg.H {
					continue
				}
				n := a.cell(nx, ny)
				if set[n] && !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
		if !seen[dst] {
			return fmt.Errorf("labyrinth: path %d is disconnected", idv)
		}
	}
	return nil
}
