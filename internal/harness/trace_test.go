package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// TestBuildAttachesInstruments pins the one attach seam: for every buildable
// system, Build leaves exactly the instruments it was given attached to the
// system's kernel (and the profiler's address-level half to its engine),
// the registry sample reads them back, and a short run records through
// them. Only the Sequential baseline has no kernel.
func TestBuildAttachesInstruments(t *testing.T) {
	for _, name := range AllSystemNames {
		t.Run(name, func(t *testing.T) {
			sink := trace.NewSink(64)
			p := prof.New(prof.Config{})
			gcfg := governor.DefaultConfig()
			gcfg.TimeBudget = time.Hour + 7 // never exceeded; marks this governor in the sample
			reg := obs.NewRegistry()
			sys := Build(name, BuildOptions{
				DataWords: 1 << 12, Threads: 2,
				Trace: sink, Governor: &gcfg, Profile: p, Obs: reg,
			})
			k := KernelOf(sys)
			if k == nil {
				t.Fatal("no kernel")
			}
			if k.TraceSink() != sink || k.Profile() != p || k.Governor() == nil {
				t.Fatalf("kernel attachments: sink=%p profile=%p governor=%p",
					k.TraceSink(), k.Profile(), k.Governor())
			}
			if eng := EngineOf(sys); eng != nil && eng.Profile() != p {
				t.Fatal("engine half of the profiler not attached")
			}
			var snap obs.Snapshot
			reg.Sample(&snap)
			if len(snap.Systems) != 1 || snap.Systems[0].Name != name {
				t.Fatalf("registry sample = %+v", snap.Systems)
			}
			if s := snap.Systems[0]; !s.HasGov || !s.HasSink || !s.HasProf || !s.HasKernel {
				t.Fatalf("registry sample lost a source: gov=%v sink=%v prof=%v kernel=%v",
					s.HasGov, s.HasSink, s.HasProf, s.HasKernel)
			} else if s.TimeBudgetNanos != int64(gcfg.TimeBudget) || k.Governor().TimeBudget() != gcfg.TimeBudget {
				t.Fatalf("registry samples a governor with budget %d, kernel runs %v, built from %v",
					s.TimeBudgetNanos, k.Governor().TimeBudget(), gcfg.TimeBudget)
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
	if s := snap.Systems[0]; s.HasGov || s.HasSink || s.HasProf || s.HasKernel {
		t.Fatalf("Sequential registers counters only: %+v", s)
	}
}

// TestOneAttemptBudgetOnEverySystem: a governor budget of one attempt plus
// one conflict must serialize a system that has a slow path and leave one
// that has none (NOrec, RingSTM, NOrecRH) retrying in software — never panic
// out of Atomic, never lose an update. The conflict is forced, not raced:
// thread 0's first attempt reads the counter and then, still inside its
// body, lets thread 1 commit an increment.
func TestOneAttemptBudgetOnEverySystem(t *testing.T) {
	for _, name := range AllSystemNames {
		t.Run(name, func(t *testing.T) {
			sys := Build(name, BuildOptions{
				DataWords: 1 << 12, Threads: 2,
				Governor: &governor.Config{AttemptBudget: 1},
			})
			a := sys.Memory().AllocLines(1)
			first := true
			sys.Atomic(0, func(x tm.Tx) {
				v := x.Read(a)
				if first {
					first = false
					sys.Atomic(1, func(y tm.Tx) { y.Write(a, y.Read(a)+1) })
				}
				x.Write(a, v+1)
			})
			if got := sys.Memory().Load(a); got != 2 {
				t.Fatalf("counter = %d after two increments", got)
			}
			if st := sys.Stats().Snapshot(); st.Commits() != 2 || st.Aborts() == 0 {
				t.Fatalf("commits = %d, aborts = %d; want 2 commits and the forced conflict", st.Commits(), st.Aborts())
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
