// Command benchmark is the repository's benchmark: Part-HTM, Part-HTM-O and
// HTM-GL on four closed-loop workloads, every timing in host-normalised time,
// every commit-path share an exact count, and a ledger that prices each layer
// from outside. README.md has the metric and workload tables.
//
//	go run -C benchmark . -seed 1                      # every workload, both passes, as tables
//	go run -C benchmark . -workload list-10k -trace 0  # one run, the driver's form: a JSON line
//	go run -C benchmark . -selfcheck 5                 # are two sets of runs within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// sizes scales a run. The minimums are the sample counts the metric
// definitions promise; -quick and the tests lower them.
type sizes struct {
	seconds      float64
	minSegments  int
	tracedRounds int // traced rounds per segment, of which one warms up
	minPasses    int // ledger passes
	minTelemetry int // telemetry rounds
}

func fullSizes(seconds float64) sizes {
	return sizes{seconds: seconds, minSegments: 9, tracedRounds: 18, minPasses: 200, minTelemetry: 50}
}

var quickSizes = sizes{seconds: 0.6, minSegments: 2, tracedRounds: 4, minPasses: 10, minTelemetry: 5}

// tracedSegments is the number of segments of the traced pass.
const tracedSegments = 3

// bench is one invocation: what to run and where to write.
type bench struct {
	seed     int64
	sz       sizes
	out, log io.Writer
	// outDir is where the traced pass writes, relative to the benchmark's
	// directory, which `go run -C benchmark` makes the working directory.
	outDir string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload: the last line of a driver run.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// absorb adds a pass's operation counts and prints what its oracle rejected.
func (b *bench) absorb(rep *report, res *result) {
	rep.Attempted += res.attempted
	rep.Failed += res.failed
	rep.Correct = rep.Failed == 0
	for _, e := range res.errs {
		fmt.Fprintln(b.log, "benchmark: oracle:", e)
	}
}

func (rep *report) set(defs []metricDef, vals map[string]float64) {
	rep.Metrics = map[string]value{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " was not measured")
		}
		rep.Metrics[d.name] = value{v, d.unit}
	}
}

// warnHost tells the reader when the host changed regime within a run;
// normalisation is what makes that survivable, so it is not a failure.
func (b *bench) warnHost(res *result) {
	lo, hi := quantile(res.speed, 0), quantile(res.speed, 1)
	if hi > 1.5*lo {
		fmt.Fprintf(b.log, "benchmark: warning: host speed varied %.2fx within %s (the shadow took from %.2f to %.2f of its reference)\n",
			hi/lo, res.sp.name, lo, hi)
	}
}

// endToEndValues derives the six end-to-end metrics from an untraced pass.
func endToEndValues(res *result) map[string]float64 {
	vals := map[string]float64{"setup_s": median(res.setup)}
	for i, s := range measured {
		sr := &res.sys[i]
		vals[s.label+".tx_per_s"] = float64(res.sp.threads) * 1e9 / median(sr.nsPerTx)
		vals[s.label+".nolock_share"] = 1 - share(sr.gl, sr.commits())
	}
	return vals
}

// countValues derives the per-layer metrics that are exact counts.
func countValues(res *result) map[string]float64 {
	vals := map[string]float64{}
	for i, s := range measured {
		sr := &res.sys[i]
		vals["tm."+s.label+".htm_share"] = share(sr.htm, sr.commits())
		vals["tm."+s.label+".sw_share"] = share(sr.sw, sr.commits())
		vals["tm."+s.label+".gl_share"] = share(sr.gl, sr.commits())
		vals["htm."+s.label+".attempts_per_commit"] = share(sr.hw.commits+sr.hw.aborts(), sr.commits())
		vals["htm."+s.label+".abort_conflict_share"] = share(sr.hw.conflict, sr.hw.aborts())
		vals["htm."+s.label+".abort_capacity_share"] = share(sr.hw.capacity, sr.hw.aborts())
		vals["htm."+s.label+".abort_other_share"] = share(sr.hw.other, sr.hw.aborts())
	}
	return vals
}

// runEndToEnd is the untraced pass: the six end-to-end metrics.
func (b *bench) runEndToEnd(sp *spec, seed int64) *report {
	h := newHost()
	pl := planFor(sp, b.sz.seconds, b.sz.minSegments)
	t0 := time.Now()
	res := runWorkload(sp, seed, pl, false, h)
	fmt.Fprintf(b.log, "benchmark: %s: %d segments of %d rounds took %.1f s, the shadow %.2f of its reference\n",
		sp.name, pl.segments, pl.rounds, time.Since(t0).Seconds(), median(res.speed))
	b.warnHost(res)
	rep := &report{}
	b.absorb(rep, res)
	rep.set(endToEnd, endToEndValues(res))
	return rep
}

// runPerLayer is the per-layer pass. It splits its time between an untraced
// run (path shares, quartiles, Sequential), the traced run, the ledger and
// the telemetry overheads.
func (b *bench) runPerLayer(sp *spec, seed int64) (*report, error) {
	h := newHost()
	rep := &report{}
	sz := b.sz

	plain := runWorkload(sp, seed, planFor(sp, 0.35*sz.seconds, sz.minSegments), false, h)
	b.absorb(rep, plain)
	vals := countValues(plain)
	vals["seq.tx_per_s"] = 1e9 / median(plain.sys[seqIndex].nsPerTx)
	vals["bench.samples"] = float64(len(plain.sys[0].nsPerTx))
	for i, s := range measured {
		vals[s.label+".ns_per_tx_p25"] = quantile(plain.sys[i].nsPerTx, 0.25)
		vals[s.label+".ns_per_tx_p75"] = quantile(plain.sys[i].nsPerTx, 0.75)
	}

	// A traced round costs about three untraced ones.
	rounds := int(0.15 * sz.seconds * 1e9 / (3 * sp.roundNs * tracedSegments))
	traced := runWorkload(sp, seed, plan{tracedSegments, max(rounds, sz.tracedRounds)}, true, h)
	b.absorb(rep, traced)
	var overhead float64
	for i, s := range measured {
		sr := &traced.sys[i]
		vals["exec."+s.label+".body_runs_per_commit"] = float64(sr.bodies) / float64(sr.atomics)
		vals["core."+s.label+".access_ns_per_tx"] = median(sr.accessNs)
		vals["exec."+s.label+".outside_body_ns_per_tx"] = median(sr.outsideNs)
		vals["bench."+s.label+".body_self_ns_per_tx"] = median(sr.bodySelfNs)
		overhead += median(sr.nsPerTx) - median(plain.sys[i].nsPerTx)
	}
	vals["bench.trace_overhead"] = overhead / float64(len(measured))
	path, err := writeTrace(b.outDir, &traceFile{Workload: sp.name, Seed: seed, Tracks: traced.tracks})
	if err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(b.log, "benchmark: wrote %s\n", path)

	l := newLedger()
	deadline := time.Now().Add(time.Duration(0.30 * sz.seconds * float64(time.Second)))
	for pass := 0; pass < sz.minPasses || time.Now().Before(deadline); pass++ {
		l.pass(h)
	}
	for n, v := range l.metrics() {
		vals[n] = v
	}
	budget := time.Duration(0.15 * sz.seconds * float64(time.Second))
	for n, v := range telemetryOverheads(h, budget, sz.minTelemetry, b.outDir) {
		vals[n] = v
	}

	b.warnHost(plain)
	vals["bench.host_speed_min"] = quantile(plain.speed, 0)
	vals["bench.host_speed_median"] = median(plain.speed)
	vals["bench.host_speed_max"] = quantile(plain.speed, 1)
	vals["bench.host_alu_speed_median"] = median(h.aluSpeeds)
	rep.set(perLayer(), vals)
	return rep, nil
}

func stamp() string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d %s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func (b *bench) printMetrics(defs []metricDef, rep *report) {
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  bound %g", d.bound)
		}
		fmt.Fprintf(b.out, "  %-40s %16.6g %-6s %s is better%s\n", d.name, rep.Metrics[d.name].Value, d.unit, d.better, bound)
	}
}

// driverRun is the driver's form: one workload, one pass, one JSON line.
func (b *bench) driverRun(name string, traced bool) int {
	sp := findSpec(name)
	if sp == nil {
		fmt.Fprintf(b.log, "benchmark: unknown workload %q\n", name)
		return 2
	}
	var rep *report
	if traced {
		var err error
		if rep, err = b.runPerLayer(sp, b.seed); err != nil {
			fmt.Fprintln(b.log, "benchmark:", err)
			return 1
		}
	} else {
		rep = b.runEndToEnd(sp, b.seed)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(b.log, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(b.out, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// tables is the reader's form: every chosen workload's end-to-end metrics,
// then the per-layer block.
func (b *bench) tables(chosen []*spec, quick bool) int {
	fmt.Fprintf(b.out, "# %s seed=%d seconds=%g\n", stamp(), b.seed, b.sz.seconds)
	if quick {
		fmt.Fprintln(b.out, "# -quick: smoke run, NOT COMPARABLE with any other run")
	}
	ok := true
	var layers []*report
	for _, sp := range chosen {
		rep := b.runEndToEnd(sp, b.seed)
		fmt.Fprintf(b.out, "\n== %s (%d thread(s), closed loop): end to end, ops_attempted=%d ops_failed=%d\n",
			sp.name, sp.threads, rep.Attempted, rep.Failed)
		b.printMetrics(endToEnd, rep)
		layer, err := b.runPerLayer(sp, b.seed)
		if err != nil {
			fmt.Fprintln(b.log, "benchmark:", err)
			return 1
		}
		layers = append(layers, layer)
		ok = ok && rep.Correct && layer.Correct
	}
	for i, sp := range chosen {
		fmt.Fprintf(b.out, "\n== %s: per layer, ops_attempted=%d ops_failed=%d\n", sp.name, layers[i].Attempted, layers[i].Failed)
		b.printMetrics(perLayer(), layers[i])
	}
	if !ok {
		return 1
	}
	return 0
}

// run is main without the process: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	one := fs.String("workload", "", "run this workload alone and end with one JSON line (the driver's form)")
	many := fs.String("workloads", "", "comma-separated workloads for the other forms (default: all)")
	seconds := fs.Float64("seconds", 20, "time one pass of one workload measures for")
	traceMode := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	quick := fs.Bool("quick", false, "about five seconds in all, for smoke only: the numbers are NOT comparable")
	selfcheck := fs.Int("selfcheck", 0, "run two sets of this many runs and compare their medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *seconds > 3600 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be above 0 and at most 3600")
		return 2
	}

	b := &bench{seed: *seed, sz: fullSizes(*seconds), out: stdout, log: stderr, outDir: "out"}
	if *quick {
		b.sz = quickSizes
	}
	if *one != "" {
		return b.driverRun(*one, *traceMode != 0)
	}

	var chosen []*spec
	for i := range specs {
		if *many == "" || slices.Contains(strings.Split(*many, ","), specs[i].name) {
			chosen = append(chosen, &specs[i])
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "benchmark: no workload in %q\n", *many)
		return 2
	}
	if *selfcheck > 0 {
		return b.selfCheck(chosen, *selfcheck)
	}
	return b.tables(chosen, *quick)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
