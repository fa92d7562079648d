// Package mem provides the simulated shared memory every transactional
// protocol in this repository runs against.
//
// Memory is word addressable: a word is 8 bytes and an Addr is a word index.
// Words are grouped into 64-byte cache lines (8 words per line), the
// granularity at which the best-effort HTM engine (internal/htm) detects
// conflicts, exactly like Intel TSX.
//
// Each line has one 4-byte monitor word. Its top bit, LockBit, is the line's
// lock; the other 31 bits belong to the memory's Observer, which keeps its
// per-line state there (the HTM engine: the line's read and write monitors).
// A monitor word changes only in two ways: by its lock holder, which writes
// the observer's bits back as it unlocks, or by a compare-and-swap whose old
// value has the lock clear. So the observer updates its bits with one CAS
// when it needs no lock, and a lock holder sees them hold still.
//
// Words are accessed atomically, because a transactional access loads or
// stores the words its monitor bits entitle it to without the lock. A
// non-transactional access takes the line lock and tells the observer, which
// is the sound place to see it (strong atomicity); Unlocked is the one place
// anything waits for a line lock.
package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

	// LockBit is the bit of a line's monitor word that is the line's lock.
	LockBit uint32 = 1 << 31
)

// Line identifies a cache line within a Memory.
type Line uint32

// LineOf returns the cache line containing addr.
func LineOf(a Addr) Line { return Line(a / LineWords) }

// Observer is notified of non-transactional accesses, under the line's
// lock. The HTM engine registers itself as an Observer so that
// non-transactional reads and writes abort conflicting hardware
// transactions (strong atomicity, as Intel TSX provides).
//
// A callback gets the line's monitor word (lock bit clear) and returns the
// one to leave when the line is unlocked. It returns retry when the access
// cannot proceed yet (a hardware transaction is mid-commit on that line);
// the accessor unlocks, yields, and retries, so the non-transactional access
// never observes a partially published hardware write set.
type Observer interface {
	// NonTxRead is called before a non-transactional read of line.
	// It must abort hardware transactions that have line in their write set.
	NonTxRead(l Line, mon uint32) (next uint32, retry bool)
	// NonTxWrite is called before a non-transactional write of line.
	// It must abort hardware transactions that have line in their read or
	// write set.
	NonTxWrite(l Line, mon uint32) (next uint32, retry bool)
}

// Memory is a flat simulated shared memory.
//
// All exported accessors are safe for concurrent use. The zero value is not
// usable; create instances with New.
type Memory struct {
	words []uint64        // accessed through sync/atomic only
	mon   []atomic.Uint32 // one monitor word per line

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
		mon:   make([]atomic.Uint32, capWords/LineWords),
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

// Monitor returns line l's monitor word. The observer may update its bits
// with a compare-and-swap whose old value has LockBit clear, or as the lock
// holder through Unlock; nothing else may change it.
func (m *Memory) Monitor(l Line) *atomic.Uint32 { return &m.mon[l] }

// Unlocked returns line l's monitor word once its lock is clear, yielding
// while it is held. It is the one place anything waits for a line lock; a
// holder never blocks, so the wait is short. Hot callers test LockBit on
// the word they loaded before calling it.
func (m *Memory) Unlocked(l Line) uint32 {
	mon := &m.mon[l]
	for {
		if v := mon.Load(); v&LockBit == 0 {
			return v
		}
		runtime.Gosched()
	}
}

// Lock acquires line l's lock and returns the line's monitor word as it
// stands (lock bit clear). The HTM engine uses this to make a monitor update
// that is more than one CAS atomic. A holder must not block or take a second
// line lock; single-line critical sections only.
func (m *Memory) Lock(l Line) uint32 {
	mon := &m.mon[l]
	for {
		v := mon.Load()
		if v&LockBit != 0 {
			v = m.Unlocked(l)
		}
		if mon.CompareAndSwap(v, v|LockBit) {
			return v
		}
	}
}

// Unlock releases line l's lock, leaving mon (lock bit clear) as the line's
// monitor word: what Lock returned, with the holder's own updates.
func (m *Memory) Unlock(l Line, mon uint32) { m.mon[l].Store(mon) }

// RawLoad reads a word without locking or observer notification. It is
// atomic, but it is the caller's monitor bits or line lock that make the
// value mean something: its callers are the HTM engine and advisory peeks
// at words only ever written non-transactionally, whose decision a
// monitored read re-checks.
func (m *Memory) RawLoad(a Addr) uint64 { return atomic.LoadUint64(&m.words[a]) }

// RawStore writes a word without locking or observer notification, under
// the same terms as RawLoad.
func (m *Memory) RawStore(a Addr, v uint64) { atomic.StoreUint64(&m.words[a], v) }

// lockFor takes line l's lock once the observer has granted the access,
// retrying while a hardware transaction is mid-commit on the line. It
// returns the monitor word to unlock with. It acquires the lock itself
// rather than call Lock, which does not inline: the extra call on every
// non-transactional access cost write-capacity 2–5 % of its throughput.
func (m *Memory) lockFor(l Line, write bool) uint32 {
	mon := &m.mon[l]
	for {
		v := mon.Load()
		if v&LockBit != 0 {
			v = m.Unlocked(l)
		}
		if !mon.CompareAndSwap(v, v|LockBit) {
			continue
		}
		if m.obs == nil {
			return v
		}
		var retry bool
		if write {
			v, retry = m.obs.NonTxWrite(l, v)
		} else {
			v, retry = m.obs.NonTxRead(l, v)
		}
		if !retry {
			return v
		}
		mon.Store(v)
		runtime.Gosched()
	}
}

// Load performs a non-transactional read of a word. Hardware transactions
// holding the word's line in their write set are aborted (strong atomicity).
func (m *Memory) Load(a Addr) uint64 {
	l := LineOf(a)
	mon := m.lockFor(l, false)
	v := atomic.LoadUint64(&m.words[a])
	m.Unlock(l, mon)
	return v
}

// Store performs a non-transactional write of a word. Hardware transactions
// holding the word's line in their read or write set are aborted.
func (m *Memory) Store(a Addr, v uint64) {
	l := LineOf(a)
	mon := m.lockFor(l, true)
	atomic.StoreUint64(&m.words[a], v)
	m.Unlock(l, mon)
}

// CAS atomically compares-and-swaps a word, returning whether the swap
// happened. Like Store it aborts conflicting hardware transactions.
func (m *Memory) CAS(a Addr, old, new uint64) bool {
	l := LineOf(a)
	mon := m.lockFor(l, true)
	ok := atomic.CompareAndSwapUint64(&m.words[a], old, new)
	m.Unlock(l, mon)
	return ok
}

// Add atomically adds delta to a word and returns the new value.
func (m *Memory) Add(a Addr, delta uint64) uint64 {
	l := LineOf(a)
	mon := m.lockFor(l, true)
	v := atomic.AddUint64(&m.words[a], delta)
	m.Unlock(l, mon)
	return v
}

// AndNot atomically clears the bits of mask in the word at a and returns the
// new value. Part-HTM uses this to release its write locks from the shared
// write-locks signature.
func (m *Memory) AndNot(a Addr, mask uint64) uint64 {
	l := LineOf(a)
	mon := m.lockFor(l, true)
	v := m.update(a, 0, mask)
	m.Unlock(l, mon)
	return v
}

// Or atomically sets the bits of mask in the word at a and returns the new
// value.
func (m *Memory) Or(a Addr, mask uint64) uint64 {
	l := LineOf(a)
	mon := m.lockFor(l, true)
	v := m.update(a, mask, 0)
	m.Unlock(l, mon)
	return v
}

// update sets the bits of set and clears those of clear in the word at a,
// by CAS (the module's Go version has no atomic Or or And), and returns the
// new value.
func (m *Memory) update(a Addr, set, clear uint64) uint64 {
	w := &m.words[a]
	for {
		old := atomic.LoadUint64(w)
		if v := old&^clear | set; atomic.CompareAndSwapUint64(w, old, v) {
			return v
		}
	}
}
