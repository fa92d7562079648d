// Package obs is the live telemetry plane over the repository's
// single-writer counter substrate: a registry that takes one coherent
// sample of every registered system's tm.Stats shards, latency
// histograms, footprint distributions, and governor/kernel gauges, an
// OpenMetrics exporter over net/http, a black-box flight recorder, and an
// in-terminal watch renderer.
//
// # Snapshot coherence
//
// Every consumer — the /metrics handler, the /snapshot JSON view, the
// flight-recorder ring, the watch renderer — goes through Registry.Sample,
// which takes exactly one tm.Stats.Snapshot per system per poll and reads
// each gauge once (PR 5's one-snapshot-per-report rule: two reads of a
// live counter set may disagree, one copy cannot).
//
// # What may be sampled live
//
// The sampling path only reads state that is safe while workers run:
// tm.Counter and trace/hist counters are atomic cells any thread may read
// concurrently, and the governor/kernel gauges are atomics. The profiler's
// conflict sketch and set-heat arrays are plain single-writer memory and
// may only be read after workers quiesce — they are deliberately absent
// from the live plane (the post-run ProfileReport covers them), as are the
// trace ring cursors. The same split drives the htmsafety rule: no obs
// function is ever reachable from a hardware window; registration is
// boundary-only and collection runs on the scrape/poller goroutine
// (parthtm-vet's htmregion walk would flag the registry lock and the
// sampling allocations a window reached).
//
// # Allocation discipline
//
// Registry.Sample is allocation-free once the destination snapshot has
// grown to the registry's size: it fills pre-allocated per-system sample
// structs in place. The OpenMetrics encoder, the JSON view, and the
// flight-recorder dump path may allocate — they run at the boundary, per
// scrape or per dump, never per transaction.
package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/governor"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// KernelGauges is the execution kernel's live degradation view;
// *exec.Runner satisfies it. It stays an interface so registry tests can
// substitute a fake.
type KernelGauges interface {
	Degraded() bool
	Pressure() int64
}

// Source names the telemetry surfaces of one registered system. Stats is
// required; everything else is optional and gates the corresponding
// metric families.
type Source struct {
	// Stats is the system's commit/abort counter set (required).
	Stats *tm.Stats
	// Gov, when attached, contributes the inflight gauge (threads inside
	// a transaction right now).
	Gov *governor.Governor
	// Sink, when attached, contributes per-path and per-cause latency
	// quantiles (trace/hist shards; live-read-safe).
	Sink *trace.Sink
	// Prof, when attached, contributes footprint quantiles per
	// (class, outcome) cell. The sketch and heat planes are quiesce-only
	// and stay out of the live sample.
	Prof *prof.Profile
	// Kernel, when attached, contributes the degraded/pressure gauges.
	Kernel KernelGauges
}

// SystemSample is one system's coherent telemetry point.
type SystemSample struct {
	Name    string                                                 `json:"system"`
	TM      tm.Snapshot                                            `json:"tm"`
	Latency trace.LatencySnapshot                                  `json:"latency"`
	Foot    [prof.ClassCount][prof.OutcomeCount]prof.FootprintCell `json:"footprints"`

	Inflight int64 `json:"inflight"`
	Degraded bool  `json:"degraded"`
	Pressure int64 `json:"pressure"`

	HasGov    bool `json:"has_gov"`
	HasSink   bool `json:"has_sink"`
	HasProf   bool `json:"has_prof"`
	HasKernel bool `json:"has_kernel"`
}

// Snapshot is one coherent sample of every registered system.
type Snapshot struct {
	// TS is the sample instant on the trace.Now clock (nanoseconds).
	TS int64 `json:"ts_ns"`
	// Seq increments per Sample call across all consumers.
	Seq uint64 `json:"seq"`
	// Systems holds one sample per registered system, in registration
	// order.
	Systems []SystemSample `json:"systems"`
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

// Names returns the registered system names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Len returns the number of registered systems.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.names)
}

// Sample fills dst with one coherent sample of every registered system:
// per system, exactly one tm.Stats.Snapshot, one latency merge, one
// footprint merge, and one read of each gauge. Allocation-free once
// dst.Systems has grown to the registry's size (the only allocation is
// that one growth). Safe to call while workers run — it reads only
// atomic counter cells and gauges.
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

	out.HasSink = src.Sink != nil
	if src.Sink != nil {
		out.Latency = src.Sink.Latency()
	} else {
		out.Latency = trace.LatencySnapshot{}
	}

	out.HasProf = src.Prof != nil
	if src.Prof != nil {
		src.Prof.FootprintCells(&out.Foot)
	} else {
		out.Foot = [prof.ClassCount][prof.OutcomeCount]prof.FootprintCell{}
	}

	out.HasGov = src.Gov != nil
	out.Inflight = 0
	if src.Gov != nil {
		out.Inflight = src.Gov.Active()
	}

	out.HasKernel = src.Kernel != nil
	out.Degraded, out.Pressure = false, 0
	if src.Kernel != nil {
		out.Degraded = src.Kernel.Degraded()
		out.Pressure = src.Kernel.Pressure()
	}
}
