// Command parthtm-bench regenerates the tables and figures of the Part-HTM
// paper's evaluation against this repository's simulated best-effort HTM.
//
// Usage:
//
//	parthtm-bench -exp table1            # one experiment
//	parthtm-bench -exp all               # everything, in paper order
//	parthtm-bench -list                  # available experiment ids
//	parthtm-bench -exp fig4b -threads 1,2,4,8 -duration 1s
//	parthtm-bench -exp fig3a -systems Part-HTM,HTM-GL
//	parthtm-bench -exp chaos                 # fault-injection sweep
//	parthtm-bench -exp chaos -fault 0.25     # compare rate 0 vs 0.25
//	parthtm-bench -exp table1 -json          # structured output
//	parthtm-bench -exp all -json -out results.json
//	parthtm-bench -exp chaos -trace trace.json   # Perfetto/Chrome trace
//	parthtm-bench -exp chaos -trace-text events.txt
//	parthtm-bench -exp soak -campaign storm  # multi-phase chaos campaign
//	parthtm-bench -exp table1,chaos -governor    # several experiments, governed
//	parthtm-bench -exp chaos -prof               # abort-attribution profile
//	parthtm-bench -exp heatmap -prof-check       # assert the planted hotspot is found
//	parthtm-bench -exp domains                   # sharded-domain sweep (N x cross-ratio)
//	parthtm-bench -exp domains -domains 1,4 -cross 0,0.2
//	parthtm-bench -exp soak -flight /tmp/flight  # black-box flight recorder
//	parthtm-bench -exp fig3a -threads 1 -trace fig3a.json  # any experiment traces
//
// -trace, -governor, -prof and -flight apply to every experiment: each
// system an experiment builds gets them. Latency and profile tables print
// only for the experiments with report rows (table1, chaos, soak, heatmap,
// domains); the figures print their tables only.
//
// With -flight DIR every system an experiment builds registers its counter
// sources with one registry, and a black-box flight recorder samples that
// registry in the background. When a watchdog alarm fires or a breaker
// trips repeatedly, the recorder dumps the recent history into DIR as a
// timestamped artifact pair: a Chrome/Perfetto trace and a metrics CSV.
// SIGQUIT forces a best-effort dump.
// -wd-interval and -wd-stall tighten the soak watchdog (CI uses a
// hair-trigger setting to force an alarm deterministically).
//
// By default each experiment prints one aligned text table, with the same
// rows and series the paper's figures plot. With -json the run instead
// emits one JSON document (a ResultSet: per-system commit-path splits,
// hardware abort taxonomy, and robustness counters included); -out writes
// the output to a file instead of stdout. Progress and timing go to stderr
// whenever stdout carries the artifact.
//
// With -trace the run additionally records every transaction lifecycle
// event into per-thread ring buffers and writes a Chrome trace-event JSON
// file — open it at https://ui.perfetto.dev (or chrome://tracing) to see
// one track per worker thread, nested transaction/attempt slices, and flow
// arrows linking the retries of each transaction. -trace-text writes the
// same events as a plain sorted text listing. Traced reports also gain
// per-commit-path and per-abort-cause latency quantile tables (p50/p95/p99
// in both the text and JSON renderings). The ring buffers are fixed-size
// (newest events win), so traces of long runs cover the tail of the run.
//
// With -prof the run attaches the abort-attribution profiler to every
// system: report rows gain the hot-conflict-line table (SpaceSaving top-K)
// and footprint quantiles per commit-path class and outcome (the counter
// time series of a run is -flight's metrics CSV). -prof-check makes
// profiled experiments assert their acceptance invariants (the heatmap
// experiment fails unless the planted hot line ranks top of the sketch and
// the packed layout shows the conflict-abort excess); it implies -prof.
//
// The command prints what one run measured on the host it ran on; it does
// not judge a change. That is done with the benchmark module (benchmark/):
// a change and its parent are each run through it on one host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/domain"
	"repro/internal/governor"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/trace"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (see -list), or \"all\"")
		listExps = flag.Bool("list", false, "list available experiments")
		threads  = flag.String("threads", "", "comma-separated thread counts (default per experiment)")
		duration = flag.Duration("duration", 300*time.Millisecond, "measurement window per data point")
		systems  = flag.String("systems", "", "comma-separated systems (default per experiment)")
		cores    = flag.Int("cores", 4, "modelled physical cores (hyper-threading capacity scaling beyond this)")
		seed     = flag.Int64("seed", 1, "seed for the probabilistic hardware models")
		faultR   = flag.Float64("fault", 0, "chaos fault rate in [0,1]: replaces the chaos sweep with {0, rate}")
		jsonOut  = flag.Bool("json", false, "emit one JSON document (a ResultSet) instead of text tables")
		outPath  = flag.String("out", "", "write the output to this file instead of stdout")
		tracePth = flag.String("trace", "", "record transaction events and write a Chrome/Perfetto trace JSON file")
		traceTxt = flag.String("trace-text", "", "record transaction events and write a plain-text event listing")
		traceCap = flag.Int("trace-cap", 0, "per-thread trace ring capacity in events (0 = default, rounded up to a power of two)")
		governed = flag.Bool("governor", false, "attach a resource governor (per-thread HTM circuit breaker) to every system")
		campaign = flag.String("campaign", "", "soak chaos-campaign preset: storm (default) or ramp")
		profOn   = flag.Bool("prof", false, "attach the abort-attribution profiler: hot-line and footprint report tables")
		profChk  = flag.Bool("prof-check", false, "fail experiments whose profile acceptance checks do not hold (heatmap); implies -prof")
		domains  = flag.String("domains", "", "comma-separated domain counts for the domains experiment (default 1,2,4,8)")
		crossR   = flag.String("cross", "", "comma-separated cross-domain ratios in [0,1] for the domains experiment (default 0,0.2)")
		flight   = flag.String("flight", "", "enable the black-box flight recorder, dumping artifacts into this directory")
		wdIntvl  = flag.Duration("wd-interval", 0, "override the soak watchdog sampling interval (0 = experiment default)")
		wdStall  = flag.Int("wd-stall", 0, "override the soak watchdog stall-sample threshold (0 = experiment default)")
	)
	flag.Parse()

	rate, ok := clampFault(*faultR)
	if !ok {
		fmt.Fprintf(os.Stderr, "parthtm-bench: bad -fault value %v\n", *faultR)
		os.Exit(2)
	}
	if !validDuration(*duration) {
		fmt.Fprintf(os.Stderr, "parthtm-bench: bad -duration value %v\n", *duration)
		os.Exit(2)
	}
	if !validCores(*cores) {
		fmt.Fprintf(os.Stderr, "parthtm-bench: bad -cores value %d\n", *cores)
		os.Exit(2)
	}

	if *listExps {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "parthtm-bench: -exp required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	opts := harness.Options{
		Duration:  *duration,
		PhysCores: *cores,
		Seed:      *seed,
		FaultRate: rate,
		Campaign:  *campaign,
	}
	if *governed {
		gcfg := governor.DefaultConfig()
		opts.Governor = &gcfg
	}
	var sink *trace.Sink
	if *tracePth != "" || *traceTxt != "" || *flight != "" {
		// -flight needs the event rings even when no -trace file was asked
		// for: the sink IS the flight recorder's black-box event history.
		sink = trace.NewSink(*traceCap)
		opts.Trace = sink
	}
	if *profOn || *profChk {
		opts.Profile = prof.New(prof.Config{})
		opts.ProfCheck = *profChk
	}
	if *wdIntvl > 0 || *wdStall > 0 {
		wcfg := governor.DefaultWatchdogConfig()
		if *wdIntvl > 0 {
			wcfg.Interval = *wdIntvl
		}
		if *wdStall > 0 {
			wcfg.StallSamples = *wdStall
		}
		opts.Watchdog = &wcfg
	}
	var recorder *obs.FlightRecorder
	if *flight != "" {
		if err := os.MkdirAll(*flight, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "parthtm-bench: %v\n", err)
			os.Exit(1)
		}
		opts.Obs = obs.NewRegistry()
		recorder = obs.NewFlightRecorder(opts.Obs, obs.FlightConfig{Dir: *flight})
		recorder.SetSink(sink)
		recorder.Start()
		defer recorder.InstallSIGQUIT()()
		opts.Flight = recorder
	}
	// Long runs and flight-recorded runs emit progress lines so a hung
	// nightly job is diagnosable from its log.
	if *duration >= time.Second || *flight != "" {
		opts.Progress = os.Stderr
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || !validThreads(n) {
				fmt.Fprintf(os.Stderr, "parthtm-bench: bad -threads value %q\n", part)
				os.Exit(2)
			}
			opts.Threads = append(opts.Threads, n)
		}
	}
	if *systems != "" {
		for _, part := range strings.Split(*systems, ",") {
			name := strings.TrimSpace(part)
			if !validSystem(name) {
				fmt.Fprintf(os.Stderr, "parthtm-bench: bad -systems value %q (one of %s)\n", part, strings.Join(harness.AllSystemNames, ","))
				os.Exit(2)
			}
			opts.Systems = append(opts.Systems, name)
		}
	}
	if *domains != "" {
		for _, part := range strings.Split(*domains, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || !validDomains(n) {
				fmt.Fprintf(os.Stderr, "parthtm-bench: bad -domains value %q\n", part)
				os.Exit(2)
			}
			opts.Domains = append(opts.Domains, n)
		}
	}
	if *crossR != "" {
		for _, part := range strings.Split(*crossR, ",") {
			r, ok := parseRatio(part)
			if !ok {
				fmt.Fprintf(os.Stderr, "parthtm-bench: bad -cross value %q\n", part)
				os.Exit(2)
			}
			opts.Cross = append(opts.Cross, r)
		}
	}

	// Text to stdout streams as today; when the artifact is JSON or goes to
	// a file, progress moves to stderr and the artifact is written whole.
	streaming := !*jsonOut && *outPath == ""
	var set harness.ResultSet
	run := func(e harness.Experiment) {
		if streaming {
			fmt.Printf("== %s: %s\n", e.ID, e.Title)
		}
		start := time.Now()
		res, err := e.Execute(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parthtm-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if streaming {
			os.Stdout.WriteString(res.Text())
			fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
		} else {
			fmt.Fprintf(os.Stderr, "== %s done in %.1fs\n", e.ID, time.Since(start).Seconds())
		}
		set.Results = append(set.Results, res)
	}

	if *expID == "all" {
		for _, e := range harness.Experiments() {
			run(e)
		}
	} else {
		for _, id := range strings.Split(*expID, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "parthtm-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			run(e)
		}
	}
	if recorder != nil {
		recorder.Stop()
		// End of run is a quiesce point: flush any trigger still armed.
		if name, err := recorder.Flush("end"); err != nil {
			fmt.Fprintf(os.Stderr, "parthtm-bench: flight dump: %v\n", err)
			os.Exit(1)
		} else if name != "" {
			fmt.Fprintf(os.Stderr, "flight: dumped %s\n", name)
		}
		if dumps := recorder.Dumps(); len(dumps) > 0 {
			fmt.Fprintf(os.Stderr, "flight: %d artifact(s) in %s\n", len(dumps), *flight)
		}
	}
	if sink != nil {
		writeTrace(sink, *tracePth, *traceTxt)
	}
	if streaming {
		return
	}

	var artifact []byte
	if *jsonOut {
		data, err := json.MarshalIndent(&set, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "parthtm-bench: encoding results: %v\n", err)
			os.Exit(1)
		}
		artifact = append(data, '\n')
	} else {
		var sb strings.Builder
		for _, res := range set.Results {
			fmt.Fprintf(&sb, "== %s: %s\n", res.ID, res.Title)
			sb.WriteString(res.Text())
			sb.WriteByte('\n')
		}
		artifact = []byte(sb.String())
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, artifact, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "parthtm-bench: %v\n", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(artifact)
	}
}

// clampFault clamps a -fault rate into [0,1]. NaN has no place to clamp
// to, and would otherwise read as "no rate" and run the full sweep.
func clampFault(r float64) (float64, bool) {
	switch {
	case math.IsNaN(r):
		return 0, false
	case r < 0:
		return 0, true
	case r > 1:
		return 1, true
	}
	return r, true
}

// parseRatio parses one -cross ratio, which must lie in [0,1]; NaN does not.
func parseRatio(s string) (float64, bool) {
	r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return r, err == nil && r >= 0 && r <= 1
}

// validDuration reports whether d can be a -duration: a negative window
// still runs one 64-op batch per thread and prints a rate for it, and zero
// would silently mean the experiments' default window.
func validDuration(d time.Duration) bool { return d > 0 }

// validCores reports whether n can be a -cores: below 1, Build reads the
// model as "no limit" and the hyper-threading capacity halving goes off.
func validCores(n int) bool { return n >= 1 }

// validThreads reports whether n can be a -threads count: each thread runs
// its hardware transactions on one of the engine's htm.MaxSlots contexts, and
// the systems' constructors panic past that.
func validThreads(n int) bool { return n >= 1 && n <= htm.MaxSlots }

// validDomains reports whether n can be a -domains count: the protocol
// tracks a transaction's domains in one 64-bit mask, and domain.New panics
// past domain.MaxDomains.
func validDomains(n int) bool { return n >= 1 && n <= domain.MaxDomains }

// validSystem reports whether name can be a -systems entry: an experiment
// builds each named system on a worker goroutine, and Build panics on a name
// it does not know.
func validSystem(name string) bool { return slices.Contains(harness.AllSystemNames, name) }

// writeFile creates path and fills it with render, exiting on any error.
func writeFile(path string, render func(f *os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parthtm-bench: %v\n", err)
		os.Exit(1)
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parthtm-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}

// writeTrace renders the recorded events to the requested artifacts.
func writeTrace(sink *trace.Sink, chromePath, textPath string) {
	if chromePath != "" {
		writeFile(chromePath, func(f *os.File) error { return trace.WriteChrome(f, sink) })
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (open at https://ui.perfetto.dev)\n",
			len(sink.Events()), chromePath)
		if d := sink.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d older events overwritten by the ring (raise -trace-cap to keep more)\n", d)
		}
	}
	if textPath != "" {
		writeFile(textPath, func(f *os.File) error { return trace.WriteText(f, sink) })
	}
}
