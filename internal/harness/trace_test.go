package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/exec"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// TestBuildAttachesInstruments pins the one attach seam: for every buildable
// system, Build leaves exactly the instruments it was given attached to the
// system's kernel (and the profiler's address-level half to its engine),
// the registry sample reads back the kernel's governor and gauges, and a
// short run records through them. Only the Sequential baseline has no
// kernel.
func TestBuildAttachesInstruments(t *testing.T) {
	for _, name := range AllSystemNames {
		t.Run(name, func(t *testing.T) {
			sink := trace.NewSink(64)
			p := prof.New(prof.Config{})
			gcfg := governor.Config{BreakerThreshold: 3} // not the default
			reg := obs.NewRegistry()
			sys := Build(name, BuildOptions{
				DataWords: 1 << 12, Threads: 2,
				Trace: sink, Governor: &gcfg, Profile: p, Obs: reg,
			})
			k := KernelOf(sys)
			if k == nil {
				t.Fatal("no kernel")
			}
			if k.TraceSink() != sink || k.Profile() != p || k.Governor() == nil || k.Governor().Config() != gcfg {
				t.Fatalf("kernel attachments: sink=%p profile=%p governor=%p",
					k.TraceSink(), k.Profile(), k.Governor())
			}
			if eng := EngineOf(sys); eng != nil && eng.Profile() != p {
				t.Fatal("engine half of the profiler not attached")
			}
			// One transaction held open on the governed kernel must show in
			// the registry's inflight gauge: it samples that kernel.
			parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				k.Run(1, &exec.Txn{Slow: func() { close(parked); <-release }})
			}()
			<-parked
			var snap obs.Snapshot
			reg.Sample(&snap)
			close(release)
			<-done
			if len(snap.Systems) != 1 || snap.Systems[0].Name != name {
				t.Fatalf("registry sample = %+v", snap.Systems)
			}
			if s := snap.Systems[0]; !s.HasGov {
				t.Fatal("registry sample lost the governor")
			} else if s.Inflight != 1 {
				t.Fatalf("registry reads inflight %d with one transaction open on the governed kernel", s.Inflight)
			}
			a := sys.Memory().Alloc(1)
			for i := 0; i < 4; i++ {
				sys.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
			}
			if len(sink.Events()) == 0 {
				t.Fatal("a run through an attached sink recorded no events")
			}
		})
	}
	reg := obs.NewRegistry()
	seq := Build("Sequential", BuildOptions{DataWords: 1 << 12, Threads: 1, Obs: reg})
	if KernelOf(seq) != nil {
		t.Fatal("Sequential grew a kernel")
	}
	var snap obs.Snapshot
	reg.Sample(&snap)
	if s := snap.Systems[0]; s.HasGov {
		t.Fatalf("Sequential registers counters only: %+v", s)
	}
}

// TestOpenBreakerOnEverySystem: a thread whose breaker is open serializes
// every transaction but its probes. A system with a slow path must run it
// there; one that has none (NOrec, RingSTM, NOrecRH) must run its normal
// software schedule — never panic out of Atomic on a nil Slow, never lose
// an update.
func TestOpenBreakerOnEverySystem(t *testing.T) {
	noSlow := map[string]bool{"NOrec": true, "RingSTM": true, "NOrecRH": true}
	for _, name := range AllSystemNames {
		t.Run(name, func(t *testing.T) {
			sys := Build(name, BuildOptions{
				DataWords: 1 << 12, Threads: 2,
				Governor: &governor.Config{BreakerThreshold: 1},
			})
			// Threshold 1: one hardware-failed, lock-saved transaction opens
			// thread 0's breaker.
			k := KernelOf(sys)
			k.Run(0, &exec.Txn{Slow: func() { k.Thread(0).NoteHWAbort(htm.Result{Reason: abort.Other}) }})
			if snap := sys.Stats().Snapshot(); snap.BreakerTrips != 1 || snap.BreakerCloses != 0 {
				t.Fatalf("breaker not open: %+v", snap)
			}
			sys.Stats().Reset()
			a := sys.Memory().AllocLines(1)
			for id := 0; id < 2; id++ {
				sys.Atomic(id, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
			}
			if got := sys.Memory().Load(a); got != 2 {
				t.Fatalf("counter = %d after two increments", got)
			}
			snap := sys.Stats().Snapshot()
			wantSlow := uint64(1)
			if noSlow[name] {
				wantSlow = 0
			}
			if snap.Commits() != 2 || snap.BreakerSlow != wantSlow {
				t.Fatalf("commits = %d, breaker-serialized = %d; want 2 and %d",
					snap.Commits(), snap.BreakerSlow, wantSlow)
			}
		})
	}
}

// TestChaosTraced runs a short traced chaos sweep end to end: every report
// row carries a latency table, the sink holds events from the run, and the
// per-row marks landed.
func TestChaosTraced(t *testing.T) {
	sink := trace.NewSink(1 << 12)
	res, err := runChaos(Options{
		Threads: []int{2}, Duration: 30 * time.Millisecond,
		Systems: []string{"Part-HTM"}, FaultRate: 0.1, Seed: 1, Trace: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 { // rates {0, 0.1}
		t.Fatalf("reports = %d, want 2", len(res.Reports))
	}
	for i, rep := range res.Reports {
		if rep.Latency == nil {
			t.Fatalf("report %d (rate %g) has no latency table", i, rep.FaultRate)
		}
		var commits uint64
		for _, row := range rep.Latency.Paths {
			commits += row.Count
		}
		if commits == 0 {
			t.Fatalf("report %d traced no commit latencies", i)
		}
	}
	if len(sink.Events()) == 0 {
		t.Fatal("sink recorded no events")
	}
	marks := sink.Marks()
	if len(marks) != 2 || !strings.Contains(marks[1].Label, "rate=0.1") {
		t.Fatalf("marks = %+v, want one per report row", marks)
	}
	// The rendered text carries the latency block.
	if !strings.Contains(res.Text(), "# latency (ns)") {
		t.Fatalf("traced chaos text has no latency block:\n%s", res.Text())
	}
}

// TestExperimentsHonourInstruments: the instrument options reach the
// systems of experiments that report only tables — a micro-benchmark
// figure and a STAMP figure (through Speedup): the trace sink records their
// events and the registry samples their governor.
func TestExperimentsHonourInstruments(t *testing.T) {
	for _, id := range []string{"fig3a", "fig5c"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("no experiment %q", id)
			}
			sink := trace.NewSink(1 << 10)
			gcfg := governor.DefaultConfig()
			reg := obs.NewRegistry()
			if _, err := e.Execute(Options{
				Threads: []int{1}, Duration: 20 * time.Millisecond, Systems: []string{"Part-HTM"},
				Trace: sink, Governor: &gcfg, Obs: reg,
			}); err != nil {
				t.Fatal(err)
			}
			if len(sink.Events()) == 0 {
				t.Fatal("sink recorded no events")
			}
			var snap obs.Snapshot
			reg.Sample(&snap)
			for _, s := range snap.Systems {
				if s.Name == "Part-HTM" {
					if !s.HasGov {
						t.Fatal("Part-HTM registered without its governor")
					}
					return
				}
			}
			t.Fatalf("Part-HTM not registered: %+v", snap.Systems)
		})
	}
}
