package main

import (
	"math"
	"sync"
	"time"
)

// The yardstick is frozen code whose only job is to say how fast this host is
// running right now. A shared host changes speed in regimes that last from
// under a second to minutes, and in more than one way: its clock can change,
// which moves all code alike, or a neighbour can take a share of the core's
// caches and issue slots, which slows cache-bound code by half and leaves a
// dependent arithmetic chain untouched. How much a regime slows a piece of
// code depends on what the code does, so the yardstick does what the measured
// systems do:
//
//   - the mix is the access mix of a simulated transaction: a striped-mutex
//     lock/unlock and a per-line entry update per access, a map write buffer,
//     slice appends, and a commit walk that publishes the buffer and releases
//     the lines;
//   - the shadow runs a workload's own operations through the mix on its own
//     copy of the workload's data: the same addresses in the same order, the
//     same pointer chasing, the same arithmetic per hop. It takes part in
//     every round as one more system, and a system's time in a round is
//     reported as a multiple of the shadow's time in that round;
//   - the flush is an untimed walk over a buffer of the size of the
//     second-level cache. It runs before every timed slice, so that every
//     slice starts cold whatever ran before it;
//   - a yardstick slice prices what has no shadow, the set-up and the ledger
//     rows, which run between two of them: the ALU kernel (a dependent
//     multiply chain that touches no memory), the mimic kernel (the mix over
//     random addresses of 1 MiB), and the flush.
//
// README.md, "Host normalisation", has the measurements behind this.
//
// This file imports nothing from the repository, so no change to the measured
// layers can move it. Changing this file re-bases every timing metric:
// bench_test.go pins it by checksum.

// C0 and M0 are the reference durations of the two kernels of one yardstick
// slice, in nanoseconds: about their medians in the host's fast regime, on
// the host where the benchmark was defined.
const (
	C0 = 180000.0
	M0 = 450000.0
)

const (
	yardALU     = 100_000 // multiplies per yardstick slice
	yardTxns    = 360     // mimic transactions per yardstick slice
	yardWords   = 1 << 17 // 1 MiB of words, the scale of the array workloads
	yardStripes = 256
	yardFlush   = 1 << 19 // words the flush walks: 4 MiB, the size of the L2
	yardReads   = 10
	yardWrites  = 10
)

type yardEntry struct {
	readers uint64
	writer  int16
}

type yardStripe struct {
	mu sync.Mutex
	_  [56]byte
}

// mix is the frozen access mix over words, eight words to a line.
type mix struct {
	stripes [yardStripes]yardStripe
	words   []uint64
	entries []yardEntry
	wbuf    map[uint32]uint64
	order   []uint32
	rlines  []uint32
	wlines  []uint32
}

func newMix(words int) mix {
	return mix{
		words:   make([]uint64, words),
		entries: make([]yardEntry, words/8+1),
		wbuf:    make(map[uint32]uint64, 16),
	}
}

// read is a monitored read.
func (m *mix) read(a uint32) uint64 {
	l := a >> 3
	st := &m.stripes[l%yardStripes]
	st.mu.Lock()
	en := &m.entries[l]
	first := en.readers&1 == 0
	en.readers |= 1
	v := m.words[a]
	st.mu.Unlock()
	if first {
		m.rlines = append(m.rlines, l)
	}
	if len(m.wbuf) > 0 {
		if b, ok := m.wbuf[a]; ok {
			v = b
		}
	}
	return v
}

// write is a buffered write.
func (m *mix) write(a uint32, v uint64) {
	l := a >> 3
	st := &m.stripes[l%yardStripes]
	st.mu.Lock()
	en := &m.entries[l]
	first := en.writer == 0
	en.writer = 1
	st.mu.Unlock()
	if first {
		m.wlines = append(m.wlines, l)
	}
	if _, dup := m.wbuf[a]; !dup {
		m.order = append(m.order, a)
	}
	m.wbuf[a] = v
}

// commit publishes the write buffer and releases every line, as the end of a
// transaction or of a sub-transaction does.
func (m *mix) commit() {
	for _, a := range m.order {
		st := &m.stripes[(a>>3)%yardStripes]
		st.mu.Lock()
		m.words[a] = m.wbuf[a]
		st.mu.Unlock()
	}
	for _, l := range m.wlines {
		st := &m.stripes[l%yardStripes]
		st.mu.Lock()
		m.entries[l].writer = 0
		st.mu.Unlock()
	}
	for _, l := range m.rlines {
		st := &m.stripes[l%yardStripes]
		st.mu.Lock()
		m.entries[l].readers &^= 1
		st.mu.Unlock()
	}
	clear(m.wbuf)
	m.order, m.wlines, m.rlines = m.order[:0], m.wlines[:0], m.rlines[:0]
}

// yardstick runs the yardstick slices of one thread.
type yardstick struct {
	mix
	flushed []uint64
	lcg     uint64
	sum     uint64
}

func newYardstick() *yardstick {
	y := &yardstick{mix: newMix(yardWords), flushed: make([]uint64, yardFlush), lcg: 0x9E3779B97F4A7C15}
	for i := range y.words {
		y.words[i] = uint64(i) + 1
	}
	return y
}

func (y *yardstick) next() uint32 {
	y.lcg = y.lcg*6364136223846793005 + 1442695040888963407
	return uint32(y.lcg>>33) & (yardWords - 1)
}

// txn runs one mimic transaction.
func (y *yardstick) txn() {
	var acc uint64
	for i := 0; i < yardReads; i++ {
		acc += y.read(y.next())
	}
	for i := 0; i < yardWrites; i++ {
		y.write(y.next(), acc+uint64(i))
	}
	y.commit()
	y.sum += acc
}

// alu runs the ALU kernel: a chain of dependent multiplies.
func (y *yardstick) alu() {
	x := y.sum | 1
	for i := 0; i < yardALU; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	y.sum += x
}

// flush reads and writes one word of every cache line of the flush buffer.
func (y *yardstick) flush() {
	for i := 0; i < yardFlush; i += 8 {
		y.flushed[i] += y.sum
	}
}

// reading is one yardstick slice: the raw ns of each timed kernel.
type reading struct{ alu, mimic float64 }

// slice runs one yardstick slice.
func (y *yardstick) slice() reading {
	t0 := time.Now()
	y.alu()
	t1 := time.Now()
	for i := 0; i < yardTxns; i++ {
		y.txn()
	}
	r := reading{alu: float64(t1.Sub(t0)), mimic: float64(time.Since(t1))}
	y.flush()
	return r
}

// factor is what a duration of sensitivity beta, measured between the given
// yardstick readings, is multiplied by to normalise it: the duration is taken
// to cost time ∝ alu^(1-beta) × mimic^beta. Whatever beta is, a pure clock
// change cancels exactly.
func factor(beta, alu, mimic float64) float64 {
	return math.Pow(C0/alu, 1-beta) * math.Pow(M0/mimic, beta)
}

// Operation kinds of the list shape.
const (
	shadowContains uint8 = iota
	shadowInsert
	shadowRemove
)

// shape is what a shadow needs to know of a workload, in plain values.
type shape struct {
	// Array shape: per operation, reads indices into the source array and
	// then writes indices into the destination array, both of arrayLen words;
	// a sub-transaction ends every pauseEvery accesses (0: never).
	arrayLen, reads, writes int
	// List shape (listSize > 0): a sorted list of one-line nodes, work
	// iterations of arithmetic per hop, a sub-transaction ends every
	// pauseEvery hops.
	listSize, work int
	pauseEvery     int
}

// shadow runs a workload's operations through the mix on its own data. On the
// list shape word 0 is the head link, node i sits at word 8i (key, then the
// next node's word, 0 for none) and operation i may link node 1+listSize+i.
// Each thread of a workload runs a shadow of its own.
type shadow struct {
	mix
	shape
	sum uint64
}

// newShadow allocates and fills a shadow's data for ops operations: the
// source array, or the list of the given sorted keys.
func newShadow(sh shape, ops int, initial []uint32) *shadow {
	s := &shadow{shape: sh}
	if sh.listSize == 0 {
		s.mix = newMix(2 * sh.arrayLen)
		for i := 0; i < sh.arrayLen; i++ {
			s.words[i] = uint64(i) + 1
		}
		return s
	}
	s.mix = newMix((1 + sh.listSize + ops) * 8)
	prev := uint32(0)
	for i, k := range initial {
		n := uint32(1+i) * 8
		s.words[n] = uint64(k)
		s.words[prev] = uint64(n)
		prev = n + 1
	}
	return s
}

// spin is the per-hop arithmetic.
func (s *shadow) spin() {
	x := s.sum
	for i := uint64(0); i < uint64(s.work); i++ {
		x += i ^ (x >> 3)
	}
	s.sum = x
}

// arrays runs operations [from, to) of the array shape; idx holds reads+writes
// indices per operation.
func (s *shadow) arrays(idx []uint32, from, to int) {
	n := s.reads + s.writes
	for i := from; i < to; i++ {
		op := idx[i*n : (i+1)*n]
		var acc uint64
		for j, k := range op {
			if j < s.reads {
				acc += s.read(k)
			} else {
				s.write(uint32(s.arrayLen)+k, acc+uint64(j-s.reads))
			}
			if s.pauseEvery > 0 && (j+1)%s.pauseEvery == 0 {
				s.commit()
			}
		}
		s.commit()
		s.sum += acc
	}
}

// list runs operations [from, to) of the list shape.
func (s *shadow) list(keys []uint32, kinds []uint8, from, to int) {
	for i := from; i < to; i++ {
		key := uint64(keys[i])
		link, found := uint32(0), false
		cur := uint32(s.read(link))
		for hops := 1; cur != 0; hops++ {
			k := s.read(cur)
			s.spin()
			if k >= key {
				found = k == key
				break
			}
			link = cur + 1
			cur = uint32(s.read(link))
			if hops%s.pauseEvery == 0 {
				s.commit()
			}
		}
		switch {
		case kinds[i] == shadowInsert && !found:
			node := uint32(1+s.listSize+i) * 8
			s.write(node, key)
			s.write(node+1, uint64(cur))
			s.write(link, uint64(node))
		case kinds[i] == shadowRemove && found:
			s.write(link, s.read(cur+1))
		}
		s.commit()
	}
}
