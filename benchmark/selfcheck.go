package main

import (
	"fmt"
	"math"
	"slices"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the spread of ten runs is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// selfCheck runs two sets of runs of the same code, each run on another
// seed, and compares the sets the way a change is compared with its parent:
// per end-to-end metric, the two medians may differ by at most the bound. It
// also prints each set's spread, the distance between its quartiles as a
// share of its median, which should stay below a third of the bound. It
// returns the process's exit code.
func (b *bench) selfCheck(chosen []*spec, runs int) int {
	if runs < 2 {
		fmt.Fprintln(b.log, "benchmark: -selfcheck needs at least 2 runs per set")
		return 2
	}
	// vals[set][workload][metric] holds one value per run.
	var vals [2][]map[string][]float64
	correct := true
	for set := range vals {
		vals[set] = make([]map[string][]float64, len(chosen))
		for w, sp := range chosen {
			vals[set][w] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				rep := b.runEndToEnd(sp, b.seed+int64(set*runs+i))
				correct = correct && rep.Correct
				for n, v := range rep.Metrics {
					vals[set][w][n] = append(vals[set][w][n], v.Value)
				}
			}
		}
	}

	fmt.Fprintf(b.out, "# %s seconds=%g runs=%d per set, seeds %d..%d\n", stamp(), b.sz.seconds, runs, b.seed, b.seed+int64(2*runs)-1)
	fmt.Fprintf(b.out, "%-15s %-22s %14s %14s %8s %8s %8s %7s\n",
		"workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	status := 0
	for w, sp := range chosen {
		for _, d := range endToEnd {
			first, second := vals[0][w][d.name], vals[1][w][d.name]
			ma, mb := median(first), median(second)
			diff := math.Abs(mb-ma) / ma
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			verdict := ""
			switch {
			case diff <= d.bound:
			case sp.ungated:
				verdict = "  over the bound (ungated workload)"
			default:
				verdict = "  FAIL: medians differ by more than the bound"
				status = 1
			}
			fmt.Fprintf(b.out, "%-15s %-22s %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				sp.name, d.name, ma, mb, 100*diff, 100*spread(first), 100*spread(second), 100*d.bound, verdict)
		}
	}
	if !correct {
		fmt.Fprintln(b.out, "benchmark: the oracle rejected a run")
		status = 1
	}
	return status
}
