package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/governor"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/trace"
)

// telemetryChunks is how many slices of input the telemetry rounds cycle
// through.
const telemetryChunks = 8

// telemetryOverheads prices the repository's own instruments: the ratio of
// Part-HTM's small-fast ns/tx with one instrument attached to that with none.
// Every round runs one slice on each of the five systems over the same
// operations, in rotating order and each from a flushed cache, until budget
// has passed and at least minRounds are in; an overhead is the median over
// rounds of the round's ratio, which needs no normalising. The obs system is scraped by a flight recorder every
// millisecond, ten times its default cadence, so that each slice sees several
// scrapes; its artifacts, if it ever dumped any, would go under outDir.
func telemetryOverheads(h *host, budget time.Duration, minRounds int, outDir string) map[string]float64 {
	sp := findSpec("small-fast")
	k := sp.opsPerSlice
	in := genInput(sp, telemetryChunks*k, rand.New(rand.NewSource(1)))
	opts := harness.BuildOptions{DataWords: sp.dataWords(in.ops), Threads: 1, Seed: 1}

	gcfg := governor.DefaultConfig()
	reg := obs.NewRegistry()
	variants := []struct {
		name string
		with func(o *harness.BuildOptions)
	}{
		{"detached", func(*harness.BuildOptions) {}},
		{"trace", func(o *harness.BuildOptions) { o.Trace = trace.NewSink(0) }},
		{"prof", func(o *harness.BuildOptions) { o.Profile = prof.New(prof.Config{}) }},
		{"governor", func(o *harness.BuildOptions) { o.Governor = &gcfg }},
		{"obs", func(o *harness.BuildOptions) { o.Obs = reg }},
	}
	flight := obs.NewFlightRecorder(reg, obs.FlightConfig{
		Dir: filepath.Join(outDir, "flight"), SampleEvery: time.Millisecond,
	})

	workers := make([]*worker, len(variants))
	for i, v := range variants {
		o := opts
		v.with(&o)
		sys := harness.Build("Part-HTM", o)
		workers[i] = newWorker(sys, 0, in, populate(sys, in), nil)
	}
	ratios := make([][]float64, len(variants))
	raws := make([]float64, len(variants))
	deadline := time.Now().Add(budget)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		from := (round % telemetryChunks) * k
		for j := range variants {
			i := (round + j) % len(variants)
			h.flush()
			if variants[i].name == "obs" {
				flight.Start()
			}
			t0 := time.Now()
			workers[i].run(from, from+k)
			raws[i] = float64(time.Since(t0))
			flight.Stop()
		}
		if round > 0 { // the first round warms up
			for i := range variants[1:] {
				ratios[i+1] = append(ratios[i+1], raws[i+1]/raws[0])
			}
		}
	}
	out := map[string]float64{}
	for i, v := range variants[1:] {
		out[v.name+".attached_overhead"] = median(ratios[i+1])
	}
	return out
}
