// The domains experiment: throughput of the sharded-memory-domain topology
// as the domain count and the cross-domain transaction ratio sweep.
package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/bench/domwrite"
	"repro/internal/core"
)

// defaultDomainSweep and defaultCrossSweep are the grid the domains
// experiment runs when the -domains/-cross flags leave it unset.
var (
	defaultDomainSweep = []int{1, 2, 4, 8}
	defaultCrossSweep  = []float64{0, 0.2}
)

// runDomains sweeps Part-HTM over domain counts and cross-domain ratios on
// the write-heavy domwrite workload (thread-private data, so all contention
// is protocol metadata). One report row per (N, cross) cell, labelled
// Phase "N<d>/c<ratio>", carrying the throughput and the cross-domain
// counters — the N1 rows are the single-domain baseline the BENCH gate
// pins.
func runDomains(o Options) (*Result, error) {
	// Eight threads (two per domain at N=4) so the sharded topologies keep
	// every domain's commit pipeline busy while the single-domain baseline
	// funnels all eight through one ring.
	o = o.withDefaults([]int{8}, []string{"Part-HTM"})
	threads := o.Threads[0]
	domSweep := o.Domains
	if len(domSweep) == 0 {
		domSweep = defaultDomainSweep
	}
	crossSweep := o.Cross
	if len(crossSweep) == 0 {
		crossSweep = defaultCrossSweep
	}
	out := &Result{Notes: []string{fmt.Sprintf(
		"# Domains: sharded memory domains, write-heavy thread-private workload @%d threads (partitioned path)",
		threads)}}
	for _, nd := range domSweep {
		for _, cross := range crossSweep {
			phase := fmt.Sprintf("N%d/c%.2f", nd, cross)
			o.Trace.Mark("domains " + phase)
			cfg := core.DefaultConfig()
			// Isolate the partitioned path: the fast path commits the whole
			// transaction in one hardware window and touches no per-domain
			// software metadata, which is the contention under study.
			cfg.NoFastPath = true
			cfg.Domains = nd
			wcfg := domwrite.Default(nd, threads)
			wcfg.Cross = cross
			sys := o.build("Part-HTM", BuildOptions{DataWords: wcfg.MemWords(), Threads: threads, Core: &cfg})
			b := domwrite.New(sys, wcfg)
			op := func(th int, rng *rand.Rand) { b.Op(th, rng) }
			res := Throughput(sys, op, threads, o.Duration, o.Seed)
			rep := o.report("Part-HTM", threads, sys)
			rep.Phase, rep.Throughput = phase, &res
			out.Reports = append(out.Reports, rep)
		}
	}
	return out, nil
}
