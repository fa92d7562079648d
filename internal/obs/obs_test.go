package obs

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/governor"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// fakeKernel satisfies KernelGauges for registry tests.
type fakeKernel struct {
	degraded bool
	pressure int64
}

func (k *fakeKernel) Degraded() bool  { return k.degraded }
func (k *fakeKernel) Pressure() int64 { return k.pressure }

// fullSource builds a source with every optional surface attached and a
// few recognizable counter values.
func fullSource(t testing.TB) Source {
	t.Helper()
	stats := &tm.Stats{}
	sh := stats.Shard(0)
	sh.CommitsHTM.Add(100)
	sh.CommitsGL.Add(3)
	sh.AbortsConflict.Add(7)
	sh.WatchdogAlarms.Add(1)
	sh.AddSerial(1500 * time.Millisecond)

	sink := trace.NewSink(64)
	lat := sink.Lat(0)
	for i := 0; i < 10; i++ {
		lat.Path[trace.PathHTM].Add(int64(1000 * (i + 1)))
		lat.Abort[trace.CauseConflict].Add(int64(500 * (i + 1)))
	}

	p := prof.New(prof.Config{})
	ps := p.Shard(0)
	for i := 0; i < 10; i++ {
		ps.RecordFootprint(prof.ClassFast, prof.OutcomeCommit, 8, 4, 12)
	}

	gov := governor.New(governor.DefaultConfig())
	gov.Begin(gov.State(0)) // one worker inside a transaction
	return Source{Stats: stats, Sink: sink, Prof: p, Gov: gov,
		Kernel: &fakeKernel{degraded: true, pressure: 5}}
}

func TestRegistryRegisterReplace(t *testing.T) {
	reg := NewRegistry()
	if reg.Len() != 0 {
		t.Fatalf("empty registry Len = %d", reg.Len())
	}
	// A source without Stats is refused.
	reg.Register("ghost", Source{})
	if reg.Len() != 0 {
		t.Fatalf("nil-Stats registration was accepted")
	}

	a, b := &tm.Stats{}, &tm.Stats{}
	a.Shard(0).CommitsHTM.Add(1)
	b.Shard(0).CommitsHTM.Add(2)
	reg.Register("sys", Source{Stats: a})
	reg.Register("other", Source{Stats: a})
	reg.Register("sys", Source{Stats: b}) // replace keeps order
	names := reg.Names()
	if len(names) != 2 || names[0] != "sys" || names[1] != "other" {
		t.Fatalf("Names = %v, want [sys other]", names)
	}
	var snap Snapshot
	reg.Sample(&snap)
	if got := snap.Systems[0].TM.CommitsHTM; got != 2 {
		t.Fatalf("replaced source not sampled: CommitsHTM = %d, want 2", got)
	}
}

func TestSampleCoherence(t *testing.T) {
	reg := NewRegistry()
	reg.Register("full", fullSource(t))
	bare := &tm.Stats{}
	bare.Shard(0).CommitsSW.Add(9)
	reg.Register("bare", Source{Stats: bare})

	var snap Snapshot
	reg.Sample(&snap)
	if snap.Seq != 1 {
		t.Fatalf("Seq = %d, want 1", snap.Seq)
	}
	if len(snap.Systems) != 2 {
		t.Fatalf("Systems = %d, want 2", len(snap.Systems))
	}
	full, bareS := &snap.Systems[0], &snap.Systems[1]
	if full.TM.CommitsHTM != 100 || full.TM.AbortsConflict != 7 {
		t.Fatalf("full TM sample = %+v", full.TM)
	}
	if !full.HasSink || !full.HasProf || !full.HasGov || !full.HasKernel {
		t.Fatalf("full source presence flags = %+v", full)
	}
	if full.Inflight != 1 {
		t.Fatalf("inflight = %d with one transaction open, want 1", full.Inflight)
	}
	if !full.Degraded || full.Pressure != 5 {
		t.Fatalf("kernel gauges = degraded %v pressure %d", full.Degraded, full.Pressure)
	}
	if full.Latency.Path[trace.PathHTM].Count != 10 {
		t.Fatalf("latency count = %d, want 10", full.Latency.Path[trace.PathHTM].Count)
	}
	if full.Foot[prof.ClassFast][prof.OutcomeCommit].Count != 10 {
		t.Fatalf("footprint count = %d, want 10",
			full.Foot[prof.ClassFast][prof.OutcomeCommit].Count)
	}
	if bareS.HasSink || bareS.HasProf || bareS.HasGov || bareS.HasKernel {
		t.Fatalf("bare source claims optional surfaces: %+v", bareS)
	}
	if bareS.TM.CommitsSW != 9 {
		t.Fatalf("bare TM sample = %+v", bareS.TM)
	}

	// Re-sampling into the same destination bumps Seq and keeps shape.
	reg.Sample(&snap)
	if snap.Seq != 2 || len(snap.Systems) != 2 {
		t.Fatalf("resample: Seq=%d Systems=%d", snap.Seq, len(snap.Systems))
	}
}

// TestSampleAllocFree pins the sampling-path allocation contract: once the
// destination snapshot has grown to the registry's size, Sample does not
// allocate — it may run at flight-recorder cadence forever without GC
// pressure. The encoder is exempt (it runs per scrape and may allocate).
func TestSampleAllocFree(t *testing.T) {
	reg := NewRegistry()
	reg.Register("full", fullSource(t))
	var snap Snapshot
	reg.Sample(&snap) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		reg.Sample(&snap)
	})
	if allocs != 0 {
		t.Fatalf("Registry.Sample allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestConcurrentScrape hammers Sample and the encoder from several
// goroutines while writer goroutines mutate every live-sampleable surface.
// Run under -race this is the proof that the live plane reads only
// atomic state.
func TestConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	src := fullSource(t)
	reg.Register("sys", src)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sh := src.Stats.Shard(id)
			lat := src.Sink.Lat(id)
			ps := src.Prof.Shard(id)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sh.CommitsHTM.Inc()
				sh.AbortsConflict.Inc()
				lat.Path[trace.PathHTM].Add(int64(i%4096 + 1))
				ps.RecordFootprint(prof.ClassFast, prof.OutcomeCommit, 4, 2, 6)
			}
		}(w)
	}
	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var snap Snapshot
			for i := 0; i < 50; i++ {
				reg.Sample(&snap)
				if err := WriteOpenMetrics(io.Discard, &snap); err != nil {
					t.Errorf("WriteOpenMetrics: %v", err)
					return
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	wg.Wait()

	var snap Snapshot
	reg.Sample(&snap)
	if snap.Systems[0].TM.CommitsHTM <= 100 {
		t.Fatalf("writers made no progress: CommitsHTM = %d", snap.Systems[0].TM.CommitsHTM)
	}
}
