package main

import "time"

// host runs the yardstick's kernels (yardstick.go) for a pass: the flush
// before every workload slice, and the yardstick slices that normalise what
// has no shadow, the set-up and the ledger rows.
type host struct {
	// One yardstick per thread, so that each thread flushes its own cache.
	yards   []*yardstick
	gang    *gang
	flushes []func()

	prev reading // the yardstick slice most recently run
	// Every slice as a share of the reference (above 1: slower host).
	mimicSpeeds, aluSpeeds []float64

	start time.Time
}

func newHost() *host {
	return &host{yards: []*yardstick{newYardstick()}, start: time.Now()}
}

// onThreads makes the flushes that follow run on n threads of g at once. With
// n == 1 they run on the caller alone.
func (h *host) onThreads(g *gang, n int) {
	for len(h.yards) < n {
		h.yards = append(h.yards, newYardstick())
	}
	h.gang, h.flushes = g, nil
	for _, y := range h.yards[:n] {
		h.flushes = append(h.flushes, y.flush)
	}
}

// flush empties the cache of every thread, so that the timed slice that
// follows starts cold whatever ran before it.
func (h *host) flush() {
	if len(h.flushes) > 1 {
		h.gang.run(h.flushes)
	} else {
		h.yards[0].flush()
	}
}

// begin runs the yardstick slice that precedes a timed slice. Back-to-back
// timed slices share the slice between them, so begin is needed only after a
// gap.
func (h *host) begin() {
	h.prev = h.yards[0].slice()
	h.aluSpeeds = append(h.aluSpeeds, h.prev.alu/C0)
	h.mimicSpeeds = append(h.mimicSpeeds, h.prev.mimic/M0)
}

// normalise runs the yardstick slice that follows a timed slice of raw ns
// and sensitivity beta, and returns the slice's host-normalised duration.
// Durations measured inside the slice scale by the same factor: pass them as
// parts.
func (h *host) normalise(beta, raw float64, parts ...*float64) float64 {
	before := h.prev
	h.begin()
	alu, mimic := (before.alu+h.prev.alu)/2, (before.mimic+h.prev.mimic)/2
	f := factor(beta, alu, mimic)
	for _, p := range parts {
		*p *= f
	}
	return raw * f
}
