// Package obs is the flight recorder over the repository's single-writer
// counter substrate: a registry that takes one coherent sample of every
// registered system's tm.Stats shards and in-flight gauge, and a
// black-box recorder that keeps a ring of those samples and dumps it, with
// the trace rings, when a run goes wrong.
//
// # Snapshot coherence
//
// The flight recorder fills its ring through Registry.Sample, which takes
// exactly one tm.Stats.Snapshot per system per poll and reads each gauge
// once (the one-snapshot-per-report rule: two reads of a live counter set
// may disagree, one copy cannot).
//
// # What may be sampled live
//
// The sampling path only reads state that is safe while workers run:
// tm.Counter cells are atomics any thread may read concurrently, and the
// kernel's inflight gauge sums atomic per-thread flags. Latency histograms,
// footprints, the profiler's sketch and heat arrays and the trace rings are
// read after the run, by the report and the flight dump. No obs function is
// ever reachable from a hardware window: registration is boundary-only and
// sampling runs on the recorder's goroutine (parthtm-vet's htmregion walk
// would flag the registry lock and the sampling allocation a window
// reached).
//
// # Allocation discipline
//
// Registry.Sample is allocation-free once the destination snapshot has
// grown to the registry's size: it fills pre-allocated per-system sample
// structs in place. The flight-recorder dump path may allocate — it runs
// at a quiesce point, never per transaction.
package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Source names the telemetry surfaces of one registered system. Stats is
// required; the gauge is optional.
type Source struct {
	// Stats is the system's commit/abort counter set (required).
	Stats *tm.Stats
	// Kernel, set when a governor is attached to it, contributes the
	// inflight gauge (threads inside a transaction right now).
	Kernel *exec.Runner
}

// SystemSample is one system's coherent telemetry point.
type SystemSample struct {
	Name string
	TM   tm.Snapshot

	Inflight int64
	HasGov   bool
}

// Snapshot is one coherent sample of every registered system.
type Snapshot struct {
	// TS is the sample instant on the trace.Now clock (nanoseconds).
	TS int64
	// Seq increments per Sample call across all consumers.
	Seq uint64
	// Systems holds one sample per registered system, in registration
	// order.
	Systems []SystemSample
}

// Registry holds the telemetry sources of the systems under observation.
// Registration allocates and locks — it is a boundary operation, done
// before workers start (or between runs of a sweep); re-registering a name
// replaces its source, so a sweep that rebuilds a system keeps the live
// instance current. Sampling is concurrency-safe against registration.
type Registry struct {
	mu    sync.Mutex
	names []string
	srcs  []Source
	seq   atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds (or replaces) the named system's telemetry source. A nil
// Stats source is ignored. Boundary-only: never call from a hardware
// window or a measured path.
func (r *Registry) Register(name string, src Source) {
	if r == nil || src.Stats == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.names {
		if n == name {
			r.srcs[i] = src
			return
		}
	}
	r.names = append(r.names, name)
	r.srcs = append(r.srcs, src)
}

// Sample fills dst with one coherent sample of every registered system:
// per system, exactly one tm.Stats.Snapshot and one read of each gauge.
// Allocation-free once dst.Systems has grown to the registry's size (the
// only allocation is that one growth). Safe to call while workers run — it
// reads only atomic counter cells and gauges.
func (r *Registry) Sample(dst *Snapshot) {
	dst.TS = trace.Now()
	dst.Seq = r.seq.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(dst.Systems) < len(r.srcs) {
		dst.Systems = make([]SystemSample, len(r.srcs))
	}
	dst.Systems = dst.Systems[:len(r.srcs)]
	for i := range r.srcs {
		sampleOne(&dst.Systems[i], r.names[i], &r.srcs[i])
	}
}

// sampleOne fills one system's sample in place.
func sampleOne(out *SystemSample, name string, src *Source) {
	out.Name = name
	out.TM = src.Stats.Snapshot()

	out.HasGov = src.Kernel != nil
	out.Inflight = 0
	if src.Kernel != nil {
		out.Inflight = src.Kernel.Inflight()
	}
}
