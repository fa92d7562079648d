// Heatmap experiment: the profiler's acceptance test and the simulator's
// rendition of the malloc-placement effect (Dice, Harris, Kogan, Lev:
// where the allocator puts unrelated objects decides which cache lines
// transactions fight over). Each thread transactionally increments a
// private counter; the only difference between the two runs is layout —
// "packed" co-locates every counter on one cache line, "spread" gives
// each its own line. The abort-attribution profiler must identify the
// packed line as the top conflict hot spot, and the engine's conflict-
// abort count must show the packed excess over spread.
package harness

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/tm"
)

// heatmapSystems are the engine-backed systems the heatmap profiles
// (pure-software systems never run hardware windows, so the conflict
// plane has nothing to attribute).
var heatmapSystems = []string{"HTM-GL", "Part-HTM"}

const (
	// heatmapOps is the fixed per-thread operation count: the run is
	// op-counted, not wall-clocked, so totals are deterministic.
	heatmapOps = 256
	// heatmapWork spins inside the transaction, crossing tm.Spin's yield
	// threshold so transactions interleave mid-window even on one core.
	heatmapWork = 10_000
)

// heatmapLayout is one allocation of the per-thread counters.
type heatmapLayout struct {
	name  string
	addrs []mem.Addr
}

// layoutCounters allocates one counter per thread. Packed shares a single
// cache line across all threads (wrapping onto the same words past
// LineWords threads — still the same line, which is all that matters);
// spread puts each counter on its own line.
func layoutCounters(m *mem.Memory, name string, threads int) heatmapLayout {
	l := heatmapLayout{name: name, addrs: make([]mem.Addr, threads)}
	if name == "packed" {
		base := m.AllocLines(1)
		for th := 0; th < threads; th++ {
			l.addrs[th] = base + mem.Addr(th%mem.LineWords)
		}
		return l
	}
	base := m.AllocLines(threads)
	for th := 0; th < threads; th++ {
		l.addrs[th] = base + mem.Addr(th*mem.LineWords)
	}
	return l
}

// lines returns the distinct cache lines the layout planted.
func (l *heatmapLayout) lines() []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, a := range l.addrs {
		ln := uint32(mem.LineOf(a))
		if !seen[ln] {
			seen[ln] = true
			out = append(out, ln)
		}
	}
	return out
}

// runHeatmapLayout drives one (system, layout) cell: every thread runs
// heatmapOps read-work-increment transactions on its counter.
func runHeatmapLayout(sys tm.System, l heatmapLayout, threads int) {
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			addr := l.addrs[th]
			for i := 0; i < heatmapOps; i++ {
				sys.Atomic(th, func(x tm.Tx) {
					v := x.Read(addr)
					x.Work(heatmapWork)
					x.Write(addr, v+1)
				})
			}
		}(th)
	}
	wg.Wait()
}

// heatmapSum totals the counters (increments are transactional, so the
// sum must equal threads*heatmapOps regardless of word sharing).
func heatmapSum(m *mem.Memory, l heatmapLayout) uint64 {
	seen := map[mem.Addr]bool{}
	var sum uint64
	for _, a := range l.addrs {
		if !seen[a] {
			seen[a] = true
			sum += m.Load(a)
		}
	}
	return sum
}

// runHeatmap plants the hotspot under both layouts for each system and
// reports the profiles side by side. With Options.ProfCheck the run fails
// unless (a) the packed line ranks in the merged sketch's top-K for every
// system and (b) packed runs show strictly more conflict aborts than
// spread runs — the observable form of the placement effect.
func runHeatmap(o Options) (*Result, error) {
	o = o.withDefaults([]int{4}, heatmapSystems)
	threads := o.Threads[0]
	if o.Profile == nil {
		// The experiment is about the profiler: always profile, even when
		// the CLI did not ask for the export.
		o.Profile = prof.New(prof.Config{})
	}
	out := &Result{Notes: []string{fmt.Sprintf(
		"# Heatmap: %d threads x %d transactional increments; packed = all counters on one line, spread = one line each",
		threads, heatmapOps)}}
	var violations []string
	for _, name := range o.Systems {
		conflicts := map[string]uint64{}
		for _, layout := range []string{"packed", "spread"} {
			sys := o.build(name, BuildOptions{DataWords: (threads + 1) * mem.LineWords, Threads: threads})
			l := layoutCounters(sys.Memory(), layout, threads)
			runHeatmapLayout(sys, l, threads)
			if got, want := heatmapSum(sys.Memory(), l), uint64(threads*heatmapOps); got != want {
				return nil, fmt.Errorf("heatmap: %s/%s: lost updates: counters sum to %d, want %d",
					name, layout, got, want)
			}
			rep := o.report(name, threads, sys)
			rep.Phase = layout
			if rep.Engine == nil {
				return nil, fmt.Errorf("heatmap: %s has no hardware engine to profile (pick engine-backed systems)", name)
			}
			conflicts[layout] = rep.Engine.AbortsConflict
			if layout == "packed" {
				if msg := checkPlantedLines(rep.Profile, l.lines()); msg != "" {
					violations = append(violations, fmt.Sprintf("%s: %s", name, msg))
				}
			}
			out.Reports = append(out.Reports, rep)
		}
		out.Notes = append(out.Notes, fmt.Sprintf(
			"# %s: conflict aborts packed=%d spread=%d", name, conflicts["packed"], conflicts["spread"]))
		if conflicts["packed"] <= conflicts["spread"] {
			violations = append(violations, fmt.Sprintf(
				"%s: no placement effect: packed conflict aborts (%d) not above spread (%d)",
				name, conflicts["packed"], conflicts["spread"]))
		}
	}
	if len(violations) > 0 {
		out.Notes = append(out.Notes, "# PROFILE CHECK FAILED:")
		for _, v := range violations {
			out.Notes = append(out.Notes, "#   "+v)
		}
		if o.ProfCheck {
			return out, fmt.Errorf("heatmap: profile check failed: %s", violations[0])
		}
	}
	return out, nil
}

// checkPlantedLines verifies the profiler attributed the packed layout's
// conflicts to the planted line: it must appear in the merged top-K with
// the top count. Returns a violation description, or "" when satisfied.
func checkPlantedLines(rep *ProfileReport, planted []uint32) string {
	if rep == nil || len(rep.HotLines) == 0 {
		return "profiler recorded no conflicts under the packed layout"
	}
	want := map[uint32]bool{}
	for _, ln := range planted {
		want[ln] = true
	}
	if !want[rep.HotLines[0].Line] {
		return fmt.Sprintf("top hot line is %d (count %d), not the planted line %v",
			rep.HotLines[0].Line, rep.HotLines[0].Count, planted)
	}
	return ""
}
