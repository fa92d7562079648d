package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/tm"
)

// system names one measured system: its metric prefix and its harness name.
type system struct{ label, name string }

// measured lists the systems in metric order. Sequential runs as a fourth
// participant of every round, as the oracle and the speed-up denominator, and
// the workload's shadow (yardstick.go) as a fifth, as the unit of time.
var measured = []system{{"parthtm", "Part-HTM"}, {"parthtmo", "Part-HTM-O"}, {"htmgl", "HTM-GL"}}

// Slots of a round beyond the measured systems.
const (
	seqIndex    = 3
	shadowIndex = 4
	slots       = 5
)

var seqSystem = system{"seq", "Sequential"}

// plan fixes a run's size: segments, and rounds per segment of which the
// first is the warm-up.
type plan struct{ segments, rounds int }

// planFor turns a time budget into a plan through the workload's calibrated
// costs. The operation count must not depend on how fast this run happens to
// go, or the count metrics of a seed would not repeat.
func planFor(sp *spec, seconds float64, minSegments int) plan {
	segments := max(minSegments, min(int(seconds), 24))
	budget := seconds*1e9 - float64(segments)*sp.segmentNs
	rounds := int(budget/sp.roundNs) / segments
	return plan{segments: segments, rounds: max(rounds, 3)}
}

// hwCounts are the engine's counters.
type hwCounts struct{ commits, conflict, capacity, other uint64 }

func (c *hwCounts) add(sys tm.System) {
	eng := harness.EngineOf(sys)
	if eng == nil {
		return
	}
	st := eng.Stats()
	c.commits += st.Commits.Load()
	c.conflict += st.AbortsConflict.Load()
	c.capacity += st.AbortsCapacity.Load()
	c.other += st.AbortsExplicit.Load() + st.AbortsOther.Load()
}

func (c hwCounts) aborts() uint64 { return c.conflict + c.capacity + c.other }

// sysResult is what one run measured on one system.
type sysResult struct {
	nsPerTx []float64 // host-normalised, one per sampled round
	htm     uint64    // commits by path, over every round
	sw, gl  uint64
	hw      hwCounts

	// Traced pass only, host-normalised ns per transaction per round.
	accessNs, outsideNs, bodySelfNs []float64
	bodies, atomics                 int
}

func (r *sysResult) commits() uint64 { return r.htm + r.sw + r.gl }

// result is what one run of one workload measured.
type result struct {
	sp        *spec
	setup     []float64 // host-normalised seconds, one per segment
	sys       [4]sysResult
	attempted int
	failed    int
	errs      []string
	tracks    []track
	// speed is, per segment, the shadow's time as a share of its reference
	// (above 1: slower host).
	speed []float64
}

// gang runs one function per thread with a common start: the caller is
// thread 0 and the others are persistent goroutines, parked on a channel
// between slices and released together through a spin barrier.
type gang struct {
	tasks       []chan func()
	ready, done atomic.Int32
	start       atomic.Bool
	wg          sync.WaitGroup
}

// spinUntil waits for cond without leaving the processor: a thread that
// yielded at the barrier may not be running when the barrier opens, and the
// time until it is picked up again would count as part of its slice. It
// yields once in a long while so that a host with fewer processors than
// threads still makes progress.
func spinUntil(cond func() bool) {
	for i := 1; !cond(); i++ {
		if i%(1<<16) == 0 {
			runtime.Gosched()
		}
	}
}

func newGang(threads int) *gang {
	g := &gang{}
	for i := 1; i < threads; i++ {
		ch := make(chan func())
		g.tasks = append(g.tasks, ch)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for f := range ch {
				g.ready.Add(1)
				spinUntil(func() bool { return g.start.Load() })
				f()
				g.done.Add(1)
			}
		}()
	}
	return g
}

// run executes fns, one per thread, and returns the raw ns from the common
// start until the last thread finished.
func (g *gang) run(fns []func()) float64 {
	others := int32(len(fns) - 1)
	g.ready.Store(0)
	g.done.Store(0)
	g.start.Store(false)
	for i, f := range fns[1:] {
		g.tasks[i] <- f
	}
	spinUntil(func() bool { return g.ready.Load() == others })
	t0 := time.Now()
	g.start.Store(true)
	fns[0]()
	spinUntil(func() bool { return g.done.Load() == others })
	return float64(time.Since(t0))
}

func (g *gang) stop() {
	for _, ch := range g.tasks {
		close(ch)
	}
	g.wg.Wait()
}

// participant is one system's state within a segment.
type participant struct {
	sys     tm.System
	lay     layout
	workers []*worker
	steps   []func()
}

// results returns each operation's return value on the list shape: every
// operation ran on exactly one worker, which kept it in a slice of its own so
// that two threads never write one cache line.
func (p *participant) results() []bool {
	out := slices.Clone(p.workers[0].result)
	for _, w := range p.workers[1:] {
		for i, ok := range w.result {
			out[i] = out[i] || ok
		}
	}
	return out
}

// bind attaches one worker per span track (nil: untraced) to a built system.
// Sequential gets a single worker that runs every thread's operations of a
// round back to back.
func bind(sys tm.System, in *input, lay layout, recs []*recorder) *participant {
	p := &participant{sys: sys, lay: lay}
	for t, rec := range recs {
		w := newWorker(sys, t, in, lay, rec)
		p.workers = append(p.workers, w)
		p.steps = append(p.steps, func() { w.run(w.from, w.to) })
	}
	return p
}

// runWorkload runs one workload: plan.segments segments, each building the
// systems fresh and running plan.rounds rounds of one timed slice per
// system. traced selects the traced pass.
func runWorkload(sp *spec, seed int64, pl plan, traced bool, h *host) *result {
	res := &result{sp: sp}
	rng := rand.New(rand.NewSource(seed))
	g := newGang(sp.threads)
	defer g.stop()
	h.onThreads(g, sp.threads)
	defer h.onThreads(nil, 1)

	// recs[i][t] is the span track of system i's thread t: nil tracks on the
	// untraced pass.
	recs := make([][]*recorder, len(measured))
	for i := range recs {
		recs[i] = make([]*recorder, sp.threads)
		for t := range recs[i] {
			if traced {
				recs[i][t] = &recorder{epoch: h.start}
			}
		}
	}

	k := sp.opsPerSlice
	perRound := k * sp.threads
	ops := pl.rounds * perRound
	opts := harness.BuildOptions{DataWords: sp.dataWords(ops), Threads: sp.threads, Seed: 1}

	for seg := 0; seg < pl.segments; seg++ {
		in := genInput(sp, ops, rng)
		runtime.GC() // the last segment's memories go outside the timed build

		var parts [4]*participant
		var lays [3]layout
		var built [3]tm.System
		h.begin()
		t0 := time.Now()
		for i, s := range measured {
			built[i] = harness.Build(s.name, opts)
			lays[i] = populate(built[i], in)
		}
		raw := float64(time.Since(t0))
		res.setup = append(res.setup, h.normalise(setupBeta, raw)/1e9)

		for i := range measured {
			parts[i] = bind(built[i], in, lays[i], recs[i])
		}
		seq := harness.Build(seqSystem.name, opts)
		parts[seqIndex] = bind(seq, in, populate(seq, in), []*recorder{nil})

		// One shadow per thread, each on its own copy of the data.
		shSteps := make([]func(), sp.threads)
		shFrom := make([]int, sp.threads)
		for t := range shSteps {
			sh := newShadow(sp.shape(), in.ops, in.initial)
			if sp.isList() {
				shSteps[t] = func() { sh.list(in.keys, in.kinds, shFrom[t], shFrom[t]+k) }
			} else {
				shSteps[t] = func() { sh.arrays(in.idx, shFrom[t], shFrom[t]+k) }
			}
		}

		var shadowRaw float64 // over the sampled rounds
		for round := 0; round < pl.rounds; round++ {
			var raws [slots]float64
			var sms [seqIndex]sums
			for j := 0; j < slots; j++ {
				i := (round + j) % slots
				h.flush() // every slice starts cold, whatever ran before it
				switch i {
				case shadowIndex:
					for t := range shFrom {
						shFrom[t] = (round*sp.threads + t) * k
					}
					raws[i] = g.run(shSteps)
				case seqIndex:
					w := parts[i].workers[0]
					w.from, w.to = round*perRound, (round+1)*perRound
					raws[i] = g.run(parts[i].steps[:1])
				default:
					for t, w := range parts[i].workers {
						w.from = (round*sp.threads + t) * k
						w.to = w.from + k
					}
					raws[i] = g.run(parts[i].steps)
					if traced {
						for _, rec := range recs[i] {
							sms[i].add(rec.take())
						}
					}
				}
			}
			if round == 0 {
				continue // warm-up
			}
			// A system's time in a round is a multiple of the shadow's time
			// in that round, in units of the shadow's reference time.
			f := sp.shadowNs * float64(k) / raws[shadowIndex]
			shadowRaw += raws[shadowIndex]
			res.sys[seqIndex].nsPerTx = append(res.sys[seqIndex].nsPerTx, raws[seqIndex]*f/float64(perRound))
			for i := range measured {
				sr := &res.sys[i]
				sr.nsPerTx = append(sr.nsPerTx, raws[i]*f/float64(k))
				if traced {
					sm, n := &sms[i], float64(sms[i].atomics)
					sr.accessNs = append(sr.accessNs, sm.accessNs*f/n)
					sr.outsideNs = append(sr.outsideNs, (sm.atomicNs-sm.bodyNs)*f/n)
					sr.bodySelfNs = append(sr.bodySelfNs, (sm.bodyNs-sm.accessNs)*f/n)
					sr.atomics += sm.atomics
					sr.bodies += sm.bodies
				}
			}
		}

		res.speed = append(res.speed, shadowRaw/(sp.shadowNs*float64(k*(pl.rounds-1))))
		res.check(seg, parts[:])
		for i, p := range parts[:seqIndex] {
			snap := p.sys.Stats().Snapshot()
			sr := &res.sys[i]
			sr.htm += snap.CommitsHTM
			sr.sw += snap.CommitsSW
			sr.gl += snap.CommitsGL
			sr.hw.add(p.sys)
		}
	}

	for i, s := range measured {
		for t, rec := range recs[i] {
			if rec != nil {
				res.tracks = append(res.tracks, track{System: s.label, Thread: t, Spans: rec.spans})
			}
		}
	}
	return res
}

// check is the correctness oracle for one segment. On one thread every
// system ran the same stream in the same order, so each must hold exactly
// what Sequential holds and have returned what it returned. On two threads
// the list must be strictly sorted and as long as the successful inserts and
// removes say. A system that fails has failed every operation of the segment.
func (r *result) check(seg int, parts []*participant) {
	sp := r.sp
	ops := parts[seqIndex].workers[0].in.ops
	want := content(parts[seqIndex].sys, sp, parts[seqIndex].lay)
	for i, p := range parts[:seqIndex] {
		r.attempted += ops
		got := content(p.sys, sp, p.lay)
		var err string
		switch {
		case sp.threads == 1 && !slices.Equal(got, want):
			err = "content differs from Sequential"
		case sp.threads == 1 && !slices.Equal(p.results(), parts[seqIndex].results()):
			err = "operation results differ from Sequential"
		case sp.threads > 1:
			err = checkList(got, p, len(p.workers[0].in.initial))
		}
		if commits := p.sys.Stats().Commits(); err == "" && commits != uint64(ops) {
			err = fmt.Sprintf("%d commits for %d operations", commits, ops)
		}
		if err != "" {
			r.failed += ops
			r.errs = append(r.errs, fmt.Sprintf("%s segment %d %s: %s", sp.name, seg, measured[i].label, err))
		}
	}
}

func checkList(keys []uint64, p *participant, initial int) string {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Sprintf("list not strictly sorted at position %d", i)
		}
	}
	want := initial
	in := p.workers[0].in
	for i, ok := range p.results() {
		switch {
		case ok && in.kinds[i] == opInsert:
			want++
		case ok && in.kinds[i] == opRemove:
			want--
		}
	}
	if len(keys) != want {
		return fmt.Sprintf("list holds %d keys, inserts and removes say %d", len(keys), want)
	}
	return ""
}

// setupBeta is the sensitivity the set-up is normalised with (see factor in
// yardstick.go): building a system is mostly fresh pages from the kernel,
// which the host's regimes slow less than they slow the mimic kernel.
const setupBeta = 0.3
