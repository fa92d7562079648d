package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/governor"
	"repro/internal/tm"
	"repro/internal/trace"
)

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

	gov := governor.New(governor.DefaultConfig())
	gov.Begin(gov.State(0)) // one worker inside a transaction
	return Source{Stats: stats, Gov: gov}
}

func TestRegistryRegisterReplace(t *testing.T) {
	reg := NewRegistry()
	var snap Snapshot
	reg.Sample(&snap)
	if len(snap.Systems) != 0 {
		t.Fatalf("empty registry sampled %d systems", len(snap.Systems))
	}
	// A source without Stats is refused.
	reg.Register("ghost", Source{})
	reg.Sample(&snap)
	if len(snap.Systems) != 0 {
		t.Fatalf("nil-Stats registration was accepted")
	}

	a, b := &tm.Stats{}, &tm.Stats{}
	a.Shard(0).CommitsHTM.Add(1)
	b.Shard(0).CommitsHTM.Add(2)
	reg.Register("sys", Source{Stats: a})
	reg.Register("other", Source{Stats: a})
	reg.Register("sys", Source{Stats: b}) // replace keeps order
	reg.Sample(&snap)
	if len(snap.Systems) != 2 || snap.Systems[0].Name != "sys" || snap.Systems[1].Name != "other" {
		t.Fatalf("sampled systems = %+v, want [sys other]", snap.Systems)
	}
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
	if !full.HasGov {
		t.Fatalf("full source presence flags = %+v", full)
	}
	if full.Inflight != 1 {
		t.Fatalf("inflight = %d with one transaction open, want 1", full.Inflight)
	}
	if bareS.HasGov {
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
// pressure.
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

// TestConcurrentScrape hammers Sample from several goroutines while writer
// goroutines mutate every sampled surface. Run under -race this is the
// proof that sampling reads only atomic state.
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
			st := src.Gov.State(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				src.Gov.Begin(st)
				sh.CommitsHTM.Inc()
				sh.AbortsConflict.Inc()
				src.Gov.Finish(st, trace.PathHTM)
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
