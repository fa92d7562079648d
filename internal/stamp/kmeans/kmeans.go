// Package kmeans re-implements STAMP's kmeans: iterative K-means
// clustering where the per-point assignment is computed outside
// transactions (it only reads the stable previous-iteration centres) and
// each point's contribution to its cluster's accumulator is one short
// transaction — the short, genuinely conflicting transactions of Figures
// 5(a)/(b). Contention is set by the cluster count: STAMP's low-contention
// run uses more clusters (fewer collisions per accumulator) than the
// high-contention run.
package kmeans

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mem"
	"repro/internal/tm"
)

// Config describes a kmeans instance.
type Config struct {
	Points     int
	Dims       int
	Clusters   int
	Iterations int
	Seed       int64
}

// LowContention mirrors STAMP kmeans-low (more clusters).
func LowContention() Config {
	return Config{Points: 2048, Dims: 8, Clusters: 40, Iterations: 6, Seed: 11}
}

// HighContention mirrors STAMP kmeans-high (few clusters, hot
// accumulators).
func HighContention() Config {
	return Config{Points: 2048, Dims: 8, Clusters: 5, Iterations: 6, Seed: 11}
}

// App is a kmeans instance.
type App struct {
	cfg Config
	sys tm.System

	points  [][]int64 // read-only input, non-transactional
	centers [][]int64 // previous-iteration centres, stable during a phase

	// accumulators in simulated memory: per cluster, a line-aligned block
	// of [count, sum_0 .. sum_{D-1}].
	acc       mem.Addr
	blockSize int // words per cluster block, line aligned

	lastAssign []int // final-iteration assignment, for validation
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "kmeans" }

// MemWords implements stamp.App.
func (a *App) MemWords() int {
	block := (a.cfg.Dims + 1 + mem.LineWords - 1) / mem.LineWords * mem.LineWords
	return a.cfg.Clusters*block + 4*mem.LineWords
}

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	cfg := a.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	a.points = make([][]int64, cfg.Points)
	for i := range a.points {
		p := make([]int64, cfg.Dims)
		for d := range p {
			p[d] = int64(rng.Intn(1 << 16))
		}
		a.points[i] = p
	}
	a.centers = make([][]int64, cfg.Clusters)
	for c := range a.centers {
		a.centers[c] = append([]int64(nil), a.points[rng.Intn(cfg.Points)]...)
	}
	a.blockSize = (cfg.Dims + 1 + mem.LineWords - 1) / mem.LineWords * mem.LineWords
	a.acc = sys.Memory().AllocAligned(cfg.Clusters * a.blockSize)
	a.lastAssign = make([]int, cfg.Points)
}

// block returns the accumulator base address of cluster c.
func (a *App) block(c int) mem.Addr { return a.acc + mem.Addr(c*a.blockSize) }

// nearest returns the closest centre to point p (pure computation).
func (a *App) nearest(p []int64) int {
	best, bestD := 0, int64(1)<<62
	for c, ctr := range a.centers {
		var d int64
		for i := range p {
			diff := p[i] - ctr[i]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Run implements stamp.App.
func (a *App) Run(threads int) {
	cfg := a.cfg
	m := a.sys.Memory()
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Zero accumulators (master phase, non-transactional).
		for c := 0; c < cfg.Clusters; c++ {
			for w := 0; w <= cfg.Dims; w++ {
				m.Store(a.block(c)+mem.Addr(w), 0)
			}
		}
		// Parallel assignment + transactional accumulation.
		var wg sync.WaitGroup
		chunk := (cfg.Points + threads - 1) / threads
		for t := 0; t < threads; t++ {
			lo, hi := t*chunk, (t+1)*chunk
			if hi > cfg.Points {
				hi = cfg.Points
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(id, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					p := a.points[i]
					c := a.nearest(p) // non-transactional compute
					a.lastAssign[i] = c
					base := a.block(c)
					a.sys.Atomic(id, func(x tm.Tx) {
						x.Write(base, x.Read(base)+1)
						for d := 0; d < cfg.Dims; d++ {
							w := base + 1 + mem.Addr(d)
							x.Write(w, x.Read(w)+uint64(p[d]))
						}
					})
				}
			}(t, lo, hi)
		}
		wg.Wait()
		// Master: recompute centres from the accumulators.
		for c := 0; c < cfg.Clusters; c++ {
			n := m.Load(a.block(c))
			if n == 0 {
				continue
			}
			for d := 0; d < cfg.Dims; d++ {
				sum := int64(m.Load(a.block(c) + 1 + mem.Addr(d)))
				a.centers[c][d] = sum / int64(n)
			}
		}
	}
}

// Validate implements stamp.App: the final iteration's transactional
// accumulators must equal a sequential recomputation from the recorded
// assignments — any lost or doubled update breaks the equality.
func (a *App) Validate() error {
	cfg := a.cfg
	m := a.sys.Memory()
	counts := make([]uint64, cfg.Clusters)
	sums := make([][]uint64, cfg.Clusters)
	for c := range sums {
		sums[c] = make([]uint64, cfg.Dims)
	}
	for i, c := range a.lastAssign {
		counts[c]++
		for d := 0; d < cfg.Dims; d++ {
			sums[c][d] += uint64(a.points[i][d])
		}
	}
	var total uint64
	for c := 0; c < cfg.Clusters; c++ {
		got := m.Load(a.block(c))
		if got != counts[c] {
			return fmt.Errorf("kmeans: cluster %d count = %d, want %d", c, got, counts[c])
		}
		total += got
		for d := 0; d < cfg.Dims; d++ {
			gs := m.Load(a.block(c) + 1 + mem.Addr(d))
			if gs != sums[c][d] {
				return fmt.Errorf("kmeans: cluster %d dim %d sum = %d, want %d", c, d, gs, sums[c][d])
			}
		}
	}
	if total != uint64(cfg.Points) {
		return fmt.Errorf("kmeans: total count = %d, want %d", total, cfg.Points)
	}
	return nil
}
