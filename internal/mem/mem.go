// Package mem provides the simulated shared memory every transactional
// protocol in this repository runs against.
//
// Memory is word addressable: a word is 8 bytes and an Addr is a word index.
// Words are grouped into 64-byte cache lines (8 words per line), the
// granularity at which the best-effort HTM engine (internal/htm) detects
// conflicts, exactly like Intel TSX. All access to a word — transactional or
// not — is serialized through a per-line striped lock, which both makes the
// simulator race-free and gives the HTM engine a sound place to observe
// non-transactional accesses (strong atomicity).
package mem

import (
	"fmt"
	"runtime"
	"sync"
)

// Addr is a word index into a Memory. Addr 0 is reserved as a null address
// and never returned by Alloc.
type Addr uint32

const (
	// WordBytes is the size of one memory word.
	WordBytes = 8
	// LineWords is the number of words per cache line.
	LineWords = 8
	// LineBytes is the size of one cache line.
	LineBytes = WordBytes * LineWords

	// stripeCount is the number of line-lock stripes. Must be a power of two.
	stripeCount = 4096
)

// Line identifies a cache line within a Memory.
type Line uint32

// LineOf returns the cache line containing addr.
func LineOf(a Addr) Line { return Line(a / LineWords) }

// Observer is notified of non-transactional accesses, under the line's
// stripe lock. The HTM engine registers itself as an Observer so that
// non-transactional reads and writes abort conflicting hardware
// transactions (strong atomicity, as Intel TSX provides).
//
// A callback returns true when the access cannot proceed yet (a hardware
// transaction is mid-commit on that line); the accessor releases the stripe
// lock, yields, and retries, so the non-transactional access never observes
// a partially published hardware write set.
type Observer interface {
	// NonTxRead is called before a non-transactional read of line.
	// It must abort hardware transactions that have line in their write set.
	NonTxRead(l Line) (retry bool)
	// NonTxWrite is called before a non-transactional write of line.
	// It must abort hardware transactions that have line in their read or
	// write set.
	NonTxWrite(l Line) (retry bool)
}

// Memory is a flat simulated shared memory.
//
// All exported accessors are safe for concurrent use. The zero value is not
// usable; create instances with New.
type Memory struct {
	words   []uint64
	stripes [stripeCount]sync.Mutex

	allocMu sync.Mutex
	next    Addr
	limit   Addr // Alloc may not reach past this (see ReserveTop)

	obs Observer
}

// New creates a Memory holding capWords words, all zero.
func New(capWords int) *Memory {
	if capWords < LineWords {
		capWords = LineWords
	}
	// Round up to a whole number of lines.
	capWords = (capWords + LineWords - 1) / LineWords * LineWords
	return &Memory{
		words: make([]uint64, capWords),
		next:  LineWords, // line 0 (incl. Addr 0) is reserved
		limit: Addr(capWords),
	}
}

// ReserveTop carves n whole lines' worth of words off the top of the memory
// as a dedicated region that Alloc can never grow into (Part-HTM-O uses
// this for its lock-cell shadow). It returns the region's first address.
func (m *Memory) ReserveTop(n int) Addr {
	if n <= 0 {
		panic("mem: ReserveTop of non-positive size")
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	n = (n + LineWords - 1) / LineWords * LineWords
	if int(m.limit)-n < int(m.next) {
		panic(fmt.Sprintf("mem: ReserveTop(%d) overlaps allocated space", n))
	}
	m.limit -= Addr(n)
	return m.limit
}

// Words returns the capacity of the memory in words.
func (m *Memory) Words() int { return len(m.words) }

// Lines returns the capacity of the memory in cache lines.
func (m *Memory) Lines() int { return len(m.words) / LineWords }

// SetObserver installs the strong-atomicity observer. It must be called
// before any concurrent access; installing an observer mid-run is racy.
func (m *Memory) SetObserver(o Observer) { m.obs = o }

// Alloc reserves n consecutive words and returns the address of the first.
// It panics if the memory is exhausted: simulated memory is sized up front
// by the workload, so exhaustion is a configuration bug, not a runtime
// condition to handle.
func (m *Memory) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc of non-positive size")
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	a := m.next
	if int(a)+n > int(m.limit) {
		panic(fmt.Sprintf("mem: out of simulated memory (limit %d words, need %d more)", m.limit, n))
	}
	m.next += Addr(n)
	return a
}

// AllocAligned reserves n words starting on a cache-line boundary. Metadata
// such as signatures must be line aligned so that the number of lines they
// occupy (and hence their HTM conflict footprint) is exact.
func (m *Memory) AllocAligned(n int) Addr {
	if n <= 0 {
		panic("mem: AllocAligned of non-positive size")
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	a := (m.next + LineWords - 1) / LineWords * LineWords
	if int(a)+n > int(m.limit) {
		panic(fmt.Sprintf("mem: out of simulated memory (limit %d words, need %d more)", m.limit, n))
	}
	m.next = a + Addr(n)
	return a
}

// AllocLines reserves n whole cache lines and returns the address of the
// first word of the first line.
func (m *Memory) AllocLines(n int) Addr { return m.AllocAligned(n * LineWords) }

// AllocLinesAligned reserves n whole cache lines starting on an
// alignLines-line boundary (alignLines must be a power of two). Domain
// arenas carve chunk-aligned regions with it so the addr→domain routing
// table stays exact at chunk granularity and lines never straddle two
// domains.
func (m *Memory) AllocLinesAligned(n, alignLines int) Addr {
	if n <= 0 {
		panic("mem: AllocLinesAligned of non-positive size")
	}
	if alignLines <= 0 || alignLines&(alignLines-1) != 0 {
		panic("mem: AllocLinesAligned alignment must be a positive power of two")
	}
	alignWords := Addr(alignLines * LineWords)
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	a := (m.next + alignWords - 1) / alignWords * alignWords
	need := n * LineWords
	if int(a)+need > int(m.limit) {
		panic(fmt.Sprintf("mem: out of simulated memory (limit %d words, need %d more)", m.limit, need))
	}
	m.next = a + Addr(need)
	return a
}

// stripe returns the lock guarding addr's line.
func (m *Memory) stripe(l Line) *sync.Mutex {
	return &m.stripes[uint32(l)&(stripeCount-1)]
}

// Lock acquires line l's stripe. The HTM engine uses this to make monitor
// registration and the data access it guards atomic. A holder must not block
// or take a second stripe; single-line critical sections only.
func (m *Memory) Lock(l Line) { m.stripe(l).Lock() }

// Unlock releases line l's stripe.
func (m *Memory) Unlock(l Line) { m.stripe(l).Unlock() }

// RawLoad reads a word without locking or observer notification. Callers
// must hold the line's stripe (see Lock); the HTM engine is the intended
// caller.
func (m *Memory) RawLoad(a Addr) uint64 { return m.words[a] }

// RawStore writes a word without locking or observer notification. Callers
// must hold the line's stripe.
func (m *Memory) RawStore(a Addr, v uint64) { m.words[a] = v }

// access runs f under a's stripe lock after the observer has granted the
// access, retrying while a hardware transaction is mid-commit on the line.
func (m *Memory) access(a Addr, write bool, f func()) {
	l := LineOf(a)
	mu := m.stripe(l)
	for {
		mu.Lock()
		if m.obs != nil {
			var retry bool
			if write {
				retry = m.obs.NonTxWrite(l)
			} else {
				retry = m.obs.NonTxRead(l)
			}
			if retry {
				mu.Unlock()
				runtime.Gosched()
				continue
			}
		}
		f()
		mu.Unlock()
		return
	}
}

// Load performs a non-transactional read of a word. Hardware transactions
// holding the word's line in their write set are aborted (strong atomicity).
func (m *Memory) Load(a Addr) uint64 {
	var v uint64
	m.access(a, false, func() { v = m.words[a] })
	return v
}

// Store performs a non-transactional write of a word. Hardware transactions
// holding the word's line in their read or write set are aborted.
func (m *Memory) Store(a Addr, v uint64) {
	m.access(a, true, func() { m.words[a] = v })
}

// CAS atomically compares-and-swaps a word, returning whether the swap
// happened. Like Store it aborts conflicting hardware transactions.
func (m *Memory) CAS(a Addr, old, new uint64) bool {
	var ok bool
	m.access(a, true, func() {
		ok = m.words[a] == old
		if ok {
			m.words[a] = new
		}
	})
	return ok
}

// Add atomically adds delta to a word and returns the new value.
func (m *Memory) Add(a Addr, delta uint64) uint64 {
	var v uint64
	m.access(a, true, func() {
		m.words[a] += delta
		v = m.words[a]
	})
	return v
}

// AndNot atomically clears the bits of mask in the word at a and returns the
// new value. Part-HTM uses this to release its write locks from the shared
// write-locks signature.
func (m *Memory) AndNot(a Addr, mask uint64) uint64 {
	var v uint64
	m.access(a, true, func() {
		m.words[a] &^= mask
		v = m.words[a]
	})
	return v
}

// Or atomically sets the bits of mask in the word at a and returns the new
// value.
func (m *Memory) Or(a Addr, mask uint64) uint64 {
	var v uint64
	m.access(a, true, func() {
		m.words[a] |= mask
		v = m.words[a]
	})
	return v
}
