// Package htm simulates an Intel TSX-style best-effort hardware
// transactional memory over a simulated memory (internal/mem).
//
// The engine reproduces the behaviours the Part-HTM paper depends on:
//
//   - Eager conflict detection at cache-line granularity. The requesting
//     core wins: an access that conflicts with another running transaction
//     dooms that transaction (as a cache-coherence invalidation would).
//   - Buffered (invisible until commit) writes, published atomically.
//   - Write-set capacity bounded by an L1-like set-associative cache model:
//     a transaction aborts with Capacity when its distinct written lines
//     exceed the total budget or any cache set's associativity.
//   - Read-set soft capacity: reads beyond the L1 spill into L2 and survive;
//     beyond the soft budget each extra line risks eviction with a
//     probability that grows with the number of concurrently running
//     hardware transactions (shared-cache pressure), and a hard budget
//     deterministically aborts.
//   - Time limitation: every transactional operation advances a cycle
//     clock; exceeding the quantum aborts with Other (the timer interrupt
//     that unconditionally kills long transactions on real hardware).
//   - Explicit aborts with an 8-bit user code (the _xabort immediate).
//   - Strong atomicity: non-transactional accesses through mem.Memory abort
//     conflicting hardware transactions (the engine is the memory's
//     Observer).
//
// A line's monitors live in its memory monitor word (internal/mem), next to
// the bit that is the line's lock, so what a simulated access costs the host
// is as few atomic instructions on that word as the access allows:
//
//   - A read of a line the transaction already monitors loads the monitor
//     word and the data word, and no more, while the line is unlocked and
//     has no foreign writer; a first read sets its reader bit with one CAS.
//     A write monitor on a line no other transaction monitors is one CAS.
//     Only a foreign monitor, or a held lock, takes the line lock.
//   - Word-wise writes are buffered in a slice of entries in first-write
//     order, found through an open-addressed index whose slots carry a
//     generation: emptying the buffer between transactions is a generation
//     bump, and rewriting a buffered word touches no monitor.
//   - Txn.Add is Read followed by Write as one access, for a
//     read-modify-write (a ring's timestamp increment): the old word is
//     loaded once the write monitor is held, and the line enters the write
//     set only. Txn.Overwrite charges the same pair and takes the same
//     monitor but loads nothing, for a caller that reads the replaced words
//     only before Commit (the partitioned path's undo log and Part-HTM-O's
//     lock cells) with Txn.HeldWord: those loads, with no locked instruction
//     between them, overlap their cache misses, where a load after each
//     write monitor's CAS waits for the miss before the next CAS can
//     complete.
//   - A buffered word's line is loaded before Commit stores it: Add loads it
//     at the access, the caller loads an Overwrite's with HeldWord, and
//     Commit loads a Write's, in one pass of plain loads before its first
//     locked instruction, so that those misses overlap too.
//   - Commit then stores each written line without the lock and clears its
//     write monitor with one CAS, before the transaction as a whole is
//     committed; the comment at that loop says why no reader can see a mix.
//     The same CAS clears the transaction's reader bit on a line it also
//     read, so releasing that read monitor afterwards is one load; releasing
//     any other read monitor is one CAS.
//   - A read monitor is taken in one routine, readFast, whether one word is
//     loaded under it or a whole line; readLocked is its fallback.
//
// A transaction knows exactly what it holds — cycles charged, distinct lines
// read and written — and says so through Txn.Footprint, so the frameworks
// above budget in the engine's units without keeping a second count.
//
// A transaction body runs inside Engine.Execute; transactional operations
// panic with an internal sentinel when the transaction aborts, and Execute
// converts that into a Result, mirroring how control returns to _xbegin
// with an abort code on real hardware. The Result's reason, and the abort
// counters of Stats, use the one taxonomy of package abort.
package htm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/abort"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/prof"
)

// Result is what Execute reports back, standing in for the _xbegin status.
type Result struct {
	Committed bool
	Reason    abort.Reason
	Code      uint8 // user code for Explicit aborts
	Injected  bool  // the abort was forced by the fault injector
}

// Config describes the hardware resource model.
type Config struct {
	// WriteSets and WriteWays model the L1 data cache used as the write
	// buffer: a line maps to set (line mod WriteSets) and at most WriteWays
	// distinct written lines fit per set. Defaults model a 32 KB 8-way L1:
	// 64 sets x 8 ways = 512 lines.
	WriteSets int
	WriteWays int
	// WriteLines caps the total number of distinct written lines.
	WriteLines int

	// ReadLinesSoft is the read-set size (in lines) that always fits (the
	// L2-backed budget). ReadLinesHard is the deterministic maximum.
	ReadLinesSoft int
	ReadLinesHard int
	// ReadEvictProb is the per-line probability, for each read line beyond
	// ReadLinesSoft, of a capacity abort, multiplied by the number of
	// concurrently running hardware transactions beyond ReadFreeThreads
	// (shared last-level-cache pressure).
	ReadEvictProb   float64
	ReadFreeThreads int

	// Quantum is the cycle budget before a timer interrupt aborts the
	// transaction (abort.Other). Zero disables time aborts.
	Quantum int64
	// ReadCost/WriteCost are the cycles charged per transactional
	// operation; Txn.Work charges arbitrary extra cycles.
	ReadCost  int64
	WriteCost int64

	// Seed seeds the per-slot random generators used by the probabilistic
	// read-eviction model.
	Seed int64
}

// DefaultConfig returns the resource model used throughout the evaluation:
// a 32 KB 8-way L1 write buffer, a 256 KB L2 read budget, and a 150k-cycle
// timer quantum.
func DefaultConfig() Config {
	return Config{
		WriteSets:       64,
		WriteWays:       8,
		WriteLines:      512,
		ReadLinesSoft:   4096,
		ReadLinesHard:   65536,
		ReadEvictProb:   1e-4,
		ReadFreeThreads: 8,
		Quantum:         150_000,
		ReadCost:        1,
		WriteCost:       2,
		Seed:            1,
	}
}

// Oversubscribed returns a copy of the configuration with the cache budgets
// halved, modelling two hyper-threads sharing one core's L1/L2.
func (c Config) Oversubscribed() Config {
	c.WriteWays = max(1, c.WriteWays/2)
	c.WriteLines = max(1, c.WriteLines/2)
	c.ReadLinesSoft = max(1, c.ReadLinesSoft/2)
	c.ReadLinesHard = max(1, c.ReadLinesHard/2)
	return c
}

// counters is the engine's counter list, declared once: Stats holds it as
// live atomics and Snapshot as plain values. The fields follow abort.Reason,
// Commits at abort.None, so a counter's index in list is its reason.
type counters[T any] struct {
	Commits        T `json:"commits"`
	AbortsConflict T `json:"aborts_conflict"`
	AbortsCapacity T `json:"aborts_capacity"`
	AbortsExplicit T `json:"aborts_explicit"`
	AbortsOther    T `json:"aborts_other"`
}

// list views the counters as an array indexed by abort.Reason.
func (c *counters[T]) list() *[abort.Count]T {
	return (*[abort.Count]T)(unsafe.Pointer(c))
}

// Stats counts engine-level outcomes. Fields are updated atomically.
type Stats struct{ counters[atomic.Uint64] }

// Snapshot is a plain copy of Stats for reporting.
type Snapshot counters[uint64]

// Snapshot copies the counters.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	o, c := (*counters[uint64])(&out).list(), s.list()
	for i := range c {
		o[i] = c[i].Load()
	}
	return out
}

// Aborts returns the total number of aborts recorded.
func (s *Stats) Aborts() uint64 { return s.Snapshot().Aborts() }

// Aborts returns the snapshot's aborts across all reasons.
func (s Snapshot) Aborts() uint64 {
	var n uint64
	for _, v := range (*counters[uint64])(&s).list()[abort.None+1:] {
		n += v
	}
	return n
}

// transaction status values.
const (
	stActive int32 = iota
	stDoomed
	stCommitting
	stCommitted
)

// entry is a line's monitor record: the line's memory monitor word
// (mem.Memory.Monitor). Bit s of the low readerBits is set while slot s holds
// the line in its read set; the bits above hold slot+1 of the one holding it
// in its write set (0 = none), up to mem.LockBit, which is the line's lock.
// An entry changes only by one CAS that finds the lock clear, or under the
// lock; it is four bytes because the first access to a line misses on it as
// well as on the word.
type entry uint32

// MaxSlots is the number of hardware contexts (threads) an engine has: one
// reader bit each in a line's entry. It is fault.MaxSlots, so that an
// injector covers exactly the engine's slots.
const MaxSlots = fault.MaxSlots

// An entry's low readerBits are its reader mask; the writer field is the 7
// bits above, below the lock bit, and must have room for MaxSlots (a
// compile-time check).
const (
	readerBits = MaxSlots
	readerMask = entry(1)<<readerBits - 1
	lockBit    = entry(mem.LockBit)
	writerMask = lockBit - 1 - readerMask
	_          = uint(writerMask>>readerBits - MaxSlots)
)

// readers returns the mask of slots holding the line in their read set.
func (en entry) readers() uint32 { return uint32(en & readerMask) }

// writer returns slot+1 of the write set's holder, or 0.
func (en entry) writer() entry { return (en & writerMask) >> readerBits }

// setWriter makes w (slot+1, or 0 for none) the line's writer.
func (en *entry) setWriter(w entry) { *en = *en&^writerMask | w<<readerBits }

// Engine is a best-effort HTM bound to one simulated memory.
type Engine struct {
	mem   *mem.Memory
	cfg   Config
	slots []atomic.Pointer[Txn]
	// recycled holds each slot's last transaction object for reuse: a slot
	// runs one transaction at a time, and a finished transaction can no
	// longer be reached through any monitor entry.
	recycled []*Txn
	// rngs holds each slot's generator for the read-eviction model, seeded
	// on the slot's first draw (see rngOf).
	rngs    []*rand.Rand
	nActive atomic.Int32
	stats   Stats
	inj     *fault.Injector
	prof    *prof.Profile
}

// New creates an engine over m and installs it as m's strong-atomicity
// observer. The engine keeps its monitors in m's monitor words, so a memory
// has one engine.
func New(m *mem.Memory, cfg Config) *Engine {
	e := &Engine{
		mem:      m,
		cfg:      cfg,
		slots:    make([]atomic.Pointer[Txn], MaxSlots),
		recycled: make([]*Txn, MaxSlots),
		rngs:     make([]*rand.Rand, MaxSlots),
	}
	m.SetObserver(e)
	return e
}

// Memory returns the memory the engine is bound to.
func (e *Engine) Memory() *mem.Memory { return e.mem }

// Config returns the engine's resource model.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// SetInjector installs a fault injector consulted at every hardware begin
// and commit (and, via Txn.InjectionPoint, at protocol-level sites). Call
// it before any transaction runs; an injector covers the engine's MaxSlots.
// A nil injector (the default) costs one nil check per site.
func (e *Engine) SetInjector(in *fault.Injector) { e.inj = in }

// Injector returns the installed fault injector, or nil.
func (e *Engine) Injector() *fault.Injector { return e.inj }

// SetProfile attaches the abort-attribution profiler (nil detaches): every
// transaction begun afterwards caches its slot's shard and records conflict
// lines, capacity overflows, and commit/abort footprints into it. Like
// SetInjector it must be flipped only while no transactions run. A nil
// profile (the default) costs one nil check per Begin and per abort site.
//
// Attribution is requester-side: the transaction that dooms a rival over a
// line records the conflict into its own shard, preserving the
// single-writer shard discipline even though the doom crosses threads.
// Strong-atomicity dooms from non-transactional accesses (NonTxRead/Write)
// carry no requester transaction and are not attributed.
func (e *Engine) SetProfile(p *prof.Profile) { e.prof = p }

// Profile returns the attached profiler, or nil.
func (e *Engine) Profile() *prof.Profile { return e.prof }

// abortPanic is the sentinel carried by the internal panic that unwinds an
// aborting transaction body back to Execute, holding the Result it unwinds
// to. Each Txn keeps its own and panics with a pointer to it: a pointer fits
// an interface without an allocation, so an aborted attempt allocates
// nothing.
type abortPanic struct{ res Result }

// Txn is a running hardware transaction. It must only be used by the thread
// that called Execute, inside the body passed to Execute.
type Txn struct {
	eng    *Engine
	slot   int
	bit    entry // the slot's reader bit
	self   entry // the slot's writer field value, slot+1
	status atomic.Int32

	// Word-wise write buffer: entries in first-write order, found through an
	// open-addressed index (see wbProbe). Both are kept across recycle.
	wb      []wbEntry
	wbIdx   []uint64 // wbGen<<32 | index into wb; any other generation is an empty slot
	wbShift uint8    // 32 - log2(len(wbIdx))
	wbGen   uint32

	readLines  []mem.Line // distinct monitored read lines (deduped by the monitor bit)
	writeLines []mem.Line // distinct monitored write lines (deduped by the writer field)
	setOcc     []uint8
	maxOcc     uint8 // peak set occupancy, tracked for footprint profiling
	ps         *prof.Shard
	class      uint8 // profiler commit-path class (prof.ClassFast/ClassSub)
	cycles     int64
	quantum    int64 // per-transaction timer quantum (cfg.Quantum, possibly jittered)
	finished   bool

	// Pending injected abort, armed at Begin and delivered at the next
	// transactional operation — a hardware transaction aborts at some
	// instruction after _xbegin, never "instead of" it.
	injPending bool
	injReason  abort.Reason
	injCode    uint8

	// Thread-private (WriteLocal) capacity accounting: a direct-mapped line
	// cache whose misses bump localLines. Collisions recount a line —
	// overestimating occupancy, which is the conservative direction for a
	// capacity model.
	localCache []mem.Line
	localLines int

	// Whole-line write buffer (WriteLine), in first-write order. It holds a
	// ring entry and at most the signature lines of the written domains, so
	// it is searched linearly. A line must not be written both word-wise and
	// line-wise within one transaction.
	lineBuf []lineEntry

	// ap is what an abort of this transaction panics with.
	ap abortPanic

	// cold says a Write buffered a word, so Commit loads the written lines
	// (loadCold); coldSum keeps what that pass loaded, so that the loads
	// stay. They come last so that no field above moves: a field's offset
	// sets its instructions' length on the access path.
	cold    bool
	coldSum uint64
}

// lineEntry is one line buffered by WriteLine.
type lineEntry struct {
	l    mem.Line
	vals [mem.LineWords]uint64
}

// bufferedLine returns the WriteLine buffer's entry for l, or nil.
func (t *Txn) bufferedLine(l mem.Line) *lineEntry {
	for i := range t.lineBuf {
		if t.lineBuf[i].l == l {
			return &t.lineBuf[i]
		}
	}
	return nil
}

// notLineWritten enforces that a line is not written both ways. It is kept
// out of line: its callers are the word-wise write paths, which almost never
// run with a non-empty line buffer.
//
//go:noinline
func (t *Txn) notLineWritten(l mem.Line, op string) {
	if t.bufferedLine(l) != nil {
		panic("htm: " + op + " on a line written with WriteLine")
	}
}

// wbEntry is one buffered word. first marks the write that acquired its
// line's write monitor: being the line's oldest entry, it is the last of the
// line that Commit (which walks youngest first) stores.
type wbEntry struct {
	val   uint64
	addr  mem.Addr
	first bool
}

// The write buffer's index starts at 1<<wbInitLog2 slots and doubles
// whenever it would become more than half full.
const wbInitLog2 = 6

// wbProbe looks a up in the write buffer: multiplicative hash, linear
// probe. It returns the entry's position in wb, or -1 and the empty index
// slot where wbInsert may put it.
func (t *Txn) wbProbe(a mem.Addr) (i int, slot uint32) {
	mask := uint32(len(t.wbIdx) - 1)
	for slot = (uint32(a) * 0x9E3779B1) >> t.wbShift; ; slot = (slot + 1) & mask {
		s := t.wbIdx[slot]
		if uint32(s>>32) != t.wbGen {
			return -1, slot
		}
		if i = int(uint32(s)); t.wb[i].addr == a {
			return i, slot
		}
	}
}

// wbReserve makes room for one more entry, so that the slot a following
// wbProbe returns stays valid for wbInsert.
func (t *Txn) wbReserve() {
	if 2*(len(t.wb)+1) <= len(t.wbIdx) {
		return
	}
	n := 2 * len(t.wbIdx)
	t.wbIdx = make([]uint64, n)
	t.wbShift--
	t.wbGen = 1
	for i := range t.wb {
		_, slot := t.wbProbe(t.wb[i].addr)
		t.wbIdx[slot] = 1<<32 | uint64(i)
	}
}

// wbInsert appends a new entry and indexes it at slot (from wbProbe).
func (t *Txn) wbInsert(slot uint32, a mem.Addr, v uint64, first bool) {
	t.wbIdx[slot] = uint64(t.wbGen)<<32 | uint64(len(t.wb))
	t.wb = append(t.wb, wbEntry{val: v, addr: a, first: first})
}

// localCacheSize is the direct-mapped cache used to deduplicate WriteLocal
// lines (a power of two).
const localCacheSize = 256

// Begin starts a hardware transaction on the given hardware context slot
// (0 <= slot < MaxSlots; one slot per thread). From this point every
// transactional operation may abort the transaction by panicking with an
// internal sentinel; the caller must either use Execute (which handles the
// unwinding) or run the transactional region inside a function whose
// deferred recover dispatches on AsAbort.
func (e *Engine) Begin(slot int) *Txn {
	if slot < 0 || slot >= len(e.slots) {
		panic(fmt.Sprintf("htm: slot %d out of range [0,%d)", slot, len(e.slots)))
	}
	if e.slots[slot].Load() != nil {
		panic(fmt.Sprintf("htm: slot %d already running a transaction (no nesting)", slot))
	}
	t := e.recycled[slot]
	if t == nil {
		t = &Txn{
			eng:     e,
			slot:    slot,
			bit:     1 << uint(slot),
			self:    entry(slot + 1),
			wbIdx:   make([]uint64, 1<<wbInitLog2),
			wbShift: 32 - wbInitLog2,
			wbGen:   1,
			setOcc:  make([]uint8, e.cfg.WriteSets),
		}
	} else {
		e.recycled[slot] = nil
		t.recycle()
	}
	t.quantum = e.cfg.Quantum
	t.injPending = false
	t.cold = false
	t.class = prof.ClassFast
	if e.prof != nil {
		t.ps = e.prof.Shard(slot)
	} else {
		t.ps = nil
	}
	if e.inj != nil {
		t.quantum = e.inj.Quantum(slot, e.cfg.Quantum)
		if r, code, ok := e.inj.Draw(fault.SiteHTMBegin, slot); ok {
			t.injReason, t.injCode, t.injPending = r, code, true
		}
	}
	e.slots[slot].Store(t)
	e.nActive.Add(1)
	return t
}

// recycle resets a finished transaction object for its next life on the
// same slot.
func (t *Txn) recycle() {
	t.status.Store(stActive)
	// Emptying the index is a generation bump: slots of any other
	// generation read as empty. Only the 32-bit wrap has to clear them.
	t.wb = t.wb[:0]
	if t.wbGen++; t.wbGen == 0 {
		clear(t.wbIdx)
		t.wbGen = 1
	}
	t.readLines = t.readLines[:0]
	t.writeLines = t.writeLines[:0]
	clear(t.setOcc)
	t.maxOcc = 0
	t.cycles = 0
	t.finished = false
	if t.localLines > 0 {
		clear(t.localCache)
		t.localLines = 0
	}
	t.lineBuf = t.lineBuf[:0]
}

// finish tears the transaction down: monitors released, slot freed. It is
// idempotent so the user-panic escape path cannot double-release.
// committed says Commit already released the write monitors.
func (t *Txn) finish(committed bool) {
	if t.finished {
		return
	}
	t.finished = true
	t.releaseMonitors(committed)
	t.eng.slots[t.slot].Store(nil)
	t.eng.recycled[t.slot] = t
	t.eng.nActive.Add(-1)
}

// AsAbort reports whether r is an abort panic and, if so, its Result. Call it
// on recover() from a deferred function wrapping a transactional region
// used via Begin, before the slot's next transaction can abort: the panic
// value is the aborted transaction's own. It never re-raises: callers
// multiplex abort panics with workload panics and their own control-flow
// sentinels, and dispatch on it.
func AsAbort(r any) (Result, bool) {
	if ap, ok := r.(*abortPanic); ok {
		return ap.res, true
	}
	return Result{}, false
}

// Execute runs body as a hardware transaction on the given slot. It returns
// whether the transaction committed and, if not, the abort reason —
// mirroring the control flow of _xbegin. The body may be discarded mid-run:
// any panic raised by the engine's own operations must be allowed to
// propagate out of it. A panic of the body's own cancels the transaction
// (counted as one Explicit abort) and propagates.
func (e *Engine) Execute(slot int, body func(*Txn)) (res Result) {
	var t *Txn
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ap, ok := r.(*abortPanic); ok {
			res = ap.res
			return
		}
		if t != nil {
			t.Cancel()
		}
		panic(r)
	}()
	t = e.Begin(slot)
	body(t)
	t.Commit()
	res = Result{Committed: true}
	return
}

// recordAbort counts one abort; r is never abort.None.
func (e *Engine) recordAbort(r abort.Reason) {
	e.stats.list()[r].Add(1)
}

// SetProfileClass tags the transaction's footprint records with a
// commit-path class (prof.ClassFast, the Begin default, or prof.ClassSub
// for the partitioned path's sub-HTM windows). A plain field store,
// callable from inside the window.
func (t *Txn) SetProfileClass(c uint8) { t.class = c }

// profFinish records the transaction's footprint into its profiler shard:
// distinct read lines, write lines (monitored plus thread-private), and
// peak set occupancy. outcome is the abort reason, abort.None for a commit.
// The fields are still intact here — recycle, not finish, clears them.
func (t *Txn) profFinish(outcome abort.Reason) {
	if t.ps == nil {
		return
	}
	_, r, w := t.Footprint()
	t.ps.RecordFootprint(t.class, outcome, r, w, int(t.maxOcc))
}

// abort tears the transaction down, records the outcome, and unwinds. It
// keeps its body, not a call to a shared helper, so that it is not inlined:
// an inlinable abort pushes step and abortIfDoomed, which call it, over the
// inlining budget, and every access pays for the calls.
func (t *Txn) abort(reason abort.Reason, code uint8) {
	t.finish(false)
	t.eng.recordAbort(reason)
	t.profFinish(reason)
	t.ap.res = Result{Reason: reason, Code: code}
	panic(&t.ap)
}

// abortInjected is abort for injector-forced faults: the unwound Result
// carries Injected so frameworks can account the fault separately.
func (t *Txn) abortInjected(reason abort.Reason, code uint8) {
	t.finish(false)
	t.eng.recordAbort(reason)
	t.profFinish(reason)
	t.ap.res = Result{Reason: reason, Code: code, Injected: true}
	panic(&t.ap)
}

// InjectionPoint consults the fault injector at a protocol-level site
// (ring publication, lock-signature read) from inside the transaction
// body, aborting the transaction if a fault fires. A no-op without an
// injector.
func (t *Txn) InjectionPoint(site fault.Site) {
	in := t.eng.inj
	if in == nil {
		return
	}
	if r, code, ok := in.Draw(site, t.slot); ok {
		t.abortInjected(r, code)
	}
}

// Abort explicitly aborts the transaction with a user code (_xabort).
func (t *Txn) Abort(code uint8) {
	t.abort(abort.Explicit, code)
}

// Cancel abandons an open transaction without unwinding: buffered writes
// are discarded and monitors released. Callers holding a Begin handle use
// it when software control flow (not a hardware event) decides the
// transaction must not commit.
func (t *Txn) Cancel() {
	if t.finished {
		return
	}
	t.finish(false)
	t.eng.recordAbort(abort.Explicit)
	t.profFinish(abort.Explicit)
}

// Doomed reports whether the transaction has been aborted by a conflicting
// access and just hasn't noticed yet. The next transactional operation will
// unwind it.
func (t *Txn) Doomed() bool { return t.status.Load() == stDoomed }

// checkDoomed unwinds the transaction if a concurrent access doomed it or
// an injected begin-site fault is pending delivery.
func (t *Txn) checkDoomed() {
	t.abortIfDoomed()
	if t.injPending {
		t.injPending = false
		t.abortInjected(t.injReason, t.injCode)
	}
}

// abortIfDoomed unwinds the transaction if a concurrent access doomed it.
func (t *Txn) abortIfDoomed() {
	if t.status.Load() == stDoomed {
		t.abort(abort.Conflict, 0)
	}
}

// step charges cycles against the timer quantum.
func (t *Txn) step(c int64) {
	t.cycles += c
	if q := t.quantum; q > 0 && t.cycles > q {
		t.abort(abort.Other, 0)
	}
}

// Work charges c cycles of (non-memory) computation inside the transaction,
// modelling code between transactional accesses. Long computations push the
// transaction over the timer quantum exactly as on real hardware.
func (t *Txn) Work(c int64) {
	t.checkDoomed()
	t.step(c)
}

// Footprint returns what the transaction has consumed: the cycles charged
// to it and the distinct lines it has read and written (thread-private
// writes included). It is what instrumented software could count for itself
// from its own accesses — not set occupancy or eviction state — kept exactly,
// so a framework above budgets a transaction in the engine's own units. It
// stays readable after the transaction ends, until the slot's next Begin.
func (t *Txn) Footprint() (cycles int64, readLines, writeLines int) {
	return t.cycles, len(t.readLines), len(t.writeLines) + t.localLines
}

// Held reports what the transaction holds, for a software layer that
// summarises it only when it must. word is called with the address of each
// word buffered by Write, Overwrite or Add, in first-write order;
// then, unless line is nil, line is called with each line the transaction
// monitors, its read lines and then its write lines (a line both read and
// written comes twice). Words written with WriteLine or WriteLocal are not
// reported.
func (t *Txn) Held(word func(mem.Addr), line func(mem.Line)) {
	for i := range t.wb {
		word(t.wb[i].addr)
	}
	if line == nil {
		return
	}
	for _, l := range t.readLines {
		line(l)
	}
	for _, l := range t.writeLines {
		line(l)
	}
}

// doom attempts to transition victim from active to doomed.
// It returns false when the victim is past the point of no return
// (committing or committed).
func doom(victim *Txn) bool {
	for {
		s := victim.status.Load()
		switch s {
		case stActive:
			if victim.status.CompareAndSwap(stActive, stDoomed) {
				return true
			}
		case stDoomed:
			return true
		default:
			return false
		}
	}
}

// evictWriter resolves a foreign write monitor on en for a requester, which
// wins as a cache-coherence invalidation would. Called under the line's
// lock, only when en's writer is a slot other than the requester's.
// An active writer is doomed and loses the monitor (doomed). One past the
// point of no return is handed back as wait: the requester unlocks the
// line, lets it leave stCommitting, and retries. A committed writer's
// entry is stale — its writes are already published — and is left alone.
func (e *Engine) evictWriter(en *entry) (wait *Txn, doomed bool) {
	other := e.slots[en.writer()-1].Load()
	if other == nil {
		return nil, false
	}
	switch other.status.Load() {
	case stActive, stDoomed:
		if doom(other) {
			en.setWriter(0)
			return nil, true
		}
		return other, false
	case stCommitting:
		return other, false
	}
	return nil, false
}

// Read performs a transactional (monitored) read of the word at a.
//
// The status is checked again after the load: the word is loaded after the
// read monitor is taken, and a rival that stores it must doom this
// transaction first. Real hardware never hands an aborted transaction a
// value stored after its abort, so a doom that precedes the store the load
// sees is noticed here.
func (t *Txn) Read(a mem.Addr) uint64 {
	t.checkDoomed()
	t.step(t.eng.cfg.ReadCost)
	if len(t.wb) > 0 {
		if i, _ := t.wbProbe(a); i >= 0 {
			return t.wb[i].val
		}
	}
	l := mem.LineOf(a)
	if len(t.lineBuf) > 0 {
		if le := t.bufferedLine(l); le != nil {
			return le.vals[a%mem.LineWords]
		}
	}
	e := t.eng
	if first, _, ok := t.readFast(e.mem.Monitor(l)); ok {
		v := e.mem.RawLoad(a)
		if first {
			t.readLines = append(t.readLines, l)
			t.admitReadLine()
		}
		t.abortIfDoomed()
		return v
	}
	var out [1]uint64
	t.readMonitored(l, a, out[:])
	return out[0]
}

// readFast takes the read monitor on a line, whose monitor word is mon,
// without the line lock: ok reports that the line is unlocked and carries no
// foreign writer — the overwhelmingly common case. A line already monitored
// costs one load; a first read sets its reader bit with one CAS, which
// fails (ok false) if the word changed. own reports that the line is in the
// transaction's own write set.
func (t *Txn) readFast(mon *atomic.Uint32) (first, own, ok bool) {
	en := entry(mon.Load())
	w := en.writer()
	own = w == t.self
	if en&lockBit != 0 || w != 0 && !own {
		return false, false, false
	}
	if en&t.bit != 0 {
		return false, own, true
	}
	return true, own, mon.CompareAndSwap(uint32(en), uint32(en|t.bit))
}

// readLocked is readFast's fallback under the line lock. A foreign active
// writer is evicted first (requester wins, as a cache-coherence invalidation
// would); one that is committing is waited out, and ok is false after the
// wait.
func (t *Txn) readLocked(l mem.Line) (first, own, ok bool) {
	e := t.eng
	var wait *Txn
	doomed := false
	en := entry(e.mem.Lock(l))
	own = en.writer() == t.self
	if en.writer() != 0 && !own {
		wait, doomed = e.evictWriter(&en)
	}
	if wait == nil {
		first = en&t.bit == 0
		en |= t.bit
	}
	e.mem.Unlock(l, uint32(en))
	if doomed {
		t.ps.RecordConflict(uint32(l))
	}
	if wait != nil {
		waitNotCommitting(wait)
		t.checkDoomed()
		return false, false, false
	}
	return first, own, true
}

// readMonitored takes the read monitor on line l and then loads len(out)
// words of it, starting at a. own reports that the line is in the
// transaction's own write set: the words loaded are memory's, not its
// buffered ones. Like Read, it re-checks the status after the load.
func (t *Txn) readMonitored(l mem.Line, a mem.Addr, out []uint64) (own bool) {
	e := t.eng
	first, own, ok := t.readFast(e.mem.Monitor(l))
	for !ok {
		first, own, ok = t.readLocked(l)
	}
	for i := range out {
		out[i] = e.mem.RawLoad(a + mem.Addr(i))
	}
	if first {
		t.readLines = append(t.readLines, l)
		t.admitReadLine()
	}
	t.abortIfDoomed()
	return own
}

// rngOf returns slot's generator for the read-eviction model, seeding it
// on first use: few runs ever draw from it, and seeding all MaxSlots up
// front costs more than the rest of New. Only the slot's own thread calls
// it, as it does Begin.
func (e *Engine) rngOf(slot int) *rand.Rand {
	if e.rngs[slot] == nil {
		e.rngs[slot] = rand.New(rand.NewSource(e.cfg.Seed + int64(slot)*7919))
	}
	return e.rngs[slot]
}

// profCapacity attributes a capacity overflow to the line whose admission
// exceeded the resources (the last access, exactly as on real hardware).
func (t *Txn) profCapacity(l mem.Line) {
	t.ps.RecordCapacity(uint32(l))
}

// admitReadLine applies the read-capacity model after a new line entered
// the read set: on real hardware the access that exceeds the resources is
// the one that aborts.
func (t *Txn) admitReadLine() {
	cfg := &t.eng.cfg
	n := len(t.readLines)
	if cfg.ReadLinesHard > 0 && n > cfg.ReadLinesHard {
		t.profCapacity(t.readLines[n-1])
		t.abort(abort.Capacity, 0)
	}
	if cfg.ReadLinesSoft > 0 && n > cfg.ReadLinesSoft && cfg.ReadEvictProb > 0 {
		pressure := int(t.eng.nActive.Load()) - cfg.ReadFreeThreads
		if pressure > 0 {
			p := cfg.ReadEvictProb * float64(pressure)
			if t.eng.rngOf(t.slot).Float64() < p {
				t.profCapacity(t.readLines[n-1])
				t.abort(abort.Capacity, 0)
			}
		}
	}
}

// Write performs a transactional write: buffered locally, monitored
// eagerly, published at commit, where Commit loads its line first
// (loadCold). It must not touch a line written with WriteLine.
func (t *Txn) Write(a mem.Addr, v uint64) {
	t.cold = true
	t.write(a, v, t.eng.cfg.WriteCost)
}

// Overwrite is Write for a caller that wants the word it replaces, but only
// at commit (the partitioned path's undo log, Part-HTM-O's lock cells): it
// charges what a Read + Write pair charges and buffers v, loading nothing.
// The line enters the write set only: a write monitor already conflicts
// with every access a read monitor conflicts with, so the reader bit Read
// would set is redundant. HeldWord then reads the replaced word, once for
// all such writes, just before Commit; a load here would be the access's
// cache miss, and the next write monitor's CAS would wait for it. Like Write
// it must not touch a line written with WriteLine.
func (t *Txn) Overwrite(a mem.Addr, v uint64) {
	t.write(a, v, t.eng.cfg.ReadCost+t.eng.cfg.WriteCost)
}

// write is Write charging cost cycles.
func (t *Txn) write(a mem.Addr, v uint64, cost int64) {
	t.checkDoomed()
	t.step(cost)
	t.wbReserve()
	i, slot := t.wbProbe(a)
	if i >= 0 {
		// Buffered, so the line's write monitor is held (or lost to a rival
		// that doomed us, which the next operation notices).
		t.wb[i].val = v
		return
	}
	l := mem.LineOf(a)
	if len(t.lineBuf) > 0 {
		t.notLineWritten(l, "Write")
	}
	_, first := t.ensureWriteMonitor(l, a, false)
	t.wbInsert(slot, a, v, first)
}

// Add is Read(a) followed by Write(a, Read(a)+d) as one access: it buffers
// the sum and returns it. It costs what the pair costs and, like Overwrite,
// holds the line in the write set only; a word not yet buffered is loaded
// once the write monitor is held, and the status is checked after the load
// as Read checks it. Like Write it must not touch a line written with
// WriteLine.
func (t *Txn) Add(a mem.Addr, d uint64) (new uint64) {
	t.checkDoomed()
	t.step(t.eng.cfg.ReadCost + t.eng.cfg.WriteCost)
	t.wbReserve()
	i, slot := t.wbProbe(a)
	if i >= 0 {
		t.wb[i].val += d
		return t.wb[i].val
	}
	l := mem.LineOf(a)
	if len(t.lineBuf) > 0 {
		t.notLineWritten(l, "Add")
	}
	old, first := t.ensureWriteMonitor(l, a, true)
	t.wbInsert(slot, a, old+d, first)
	return old + d
}

// WriteLocal performs a transactional store of thread-private data: it
// occupies write-buffer capacity exactly like Write — the hardware buffers
// every store — but takes no monitor (nothing else accesses the line) and
// stores in place immediately. If the transaction aborts, the written words
// keep whatever values were stored; callers must only pass addresses whose
// post-abort contents are irrelevant (scratch buffers).
func (t *Txn) WriteLocal(a mem.Addr, v uint64) {
	t.checkDoomed()
	t.step(t.eng.cfg.WriteCost)
	l := mem.LineOf(a)
	if t.localCache == nil {
		t.localCache = make([]mem.Line, localCacheSize)
	}
	if i := uint32(l) & (localCacheSize - 1); t.localCache[i] != l {
		t.localCache[i] = l
		if !t.fitsWrite(l, len(t.writeLines)+t.localLines) {
			t.profCapacity(l)
			t.abort(abort.Capacity, 0)
		}
		t.occupySet(l)
		t.localLines++
	}
	t.eng.mem.RawStore(a, v)
}

// ReadLine performs one monitored read of a whole cache line into out.
// base must be line aligned. Hardware fetches lines, not words: protocol
// metadata (signatures, ring entries) is read at this granularity, costing
// one access instead of eight. Words the transaction has itself written
// read as written.
func (t *Txn) ReadLine(base mem.Addr, out *[mem.LineWords]uint64) {
	if base%mem.LineWords != 0 {
		panic("htm: ReadLine of unaligned address")
	}
	t.checkDoomed()
	t.step(t.eng.cfg.ReadCost)
	l := mem.LineOf(base)
	if len(t.lineBuf) > 0 {
		if le := t.bufferedLine(l); le != nil {
			*out = le.vals
			return
		}
	}
	if t.readMonitored(l, base, out[:]) {
		// Our own word-wise writes to the line are still buffered.
		for i := 0; i < mem.LineWords; i++ {
			if j, _ := t.wbProbe(base + mem.Addr(i)); j >= 0 {
				out[i] = t.wb[j].val
			}
		}
	}
}

// WriteLine buffers one whole cache line of writes (base must be line
// aligned), acquiring the write monitor once. A line written with WriteLine
// must not also be written word-wise in the same transaction.
func (t *Txn) WriteLine(base mem.Addr, vals *[mem.LineWords]uint64) {
	if base%mem.LineWords != 0 {
		panic("htm: WriteLine of unaligned address")
	}
	t.checkDoomed()
	t.step(t.eng.cfg.WriteCost)
	l := mem.LineOf(base)
	t.ensureWriteMonitor(l, base, false)
	if le := t.bufferedLine(l); le != nil {
		le.vals = *vals
		return
	}
	t.lineBuf = append(t.lineBuf, lineEntry{l: l, vals: *vals})
}

// fitsWrite reports whether line l fits the write buffer as its n+1st line,
// monitored or thread-private: within the total budget and a free way of
// its cache set.
func (t *Txn) fitsWrite(l mem.Line, n int) bool {
	cfg := &t.eng.cfg
	if cfg.WriteLines > 0 && n+1 > cfg.WriteLines {
		return false
	}
	return int(t.setOcc[int(uint32(l))%cfg.WriteSets])+1 <= cfg.WriteWays
}

// occupySet takes a way of line l's cache set, which fitsWrite has found
// free.
func (t *Txn) occupySet(l mem.Line) {
	set := int(uint32(l)) % t.eng.cfg.WriteSets
	t.setOcc[set]++
	if t.setOcc[set] > t.maxOcc {
		t.maxOcc = t.setOcc[set]
	}
}

// ensureWriteMonitor puts line l into the write set: a no-op if already
// held, otherwise it applies the capacity model and registers the write
// monitor, dooming conflicting readers and writers (requester wins). A line
// no other transaction monitors takes one CAS; any other case takes the
// line lock. With load it also returns the word at a (on line l), loaded
// once the monitor is held. acquired reports that this call registered the
// monitor.
func (t *Txn) ensureWriteMonitor(l mem.Line, a mem.Addr, load bool) (old uint64, acquired bool) {
	e := t.eng
	self := t.self
	mon := e.mem.Monitor(l)
	if en := entry(mon.Load()); en.writer() == self && en&lockBit == 0 {
		if load {
			old = t.loadHeld(a)
		}
		return old, false
	} else if en&^t.bit == 0 {
		if !t.fitsWrite(l, len(t.writeLines)) {
			t.profCapacity(l)
			t.abort(abort.Capacity, 0)
		}
		if mon.CompareAndSwap(uint32(en), uint32(en|self<<readerBits)) {
			t.occupySet(l)
			t.writeLines = append(t.writeLines, l)
			if load {
				old = t.loadHeld(a)
			}
			return old, true
		}
	}
	for {
		var wait *Txn
		overCap := false
		doomed := 0
		en := entry(e.mem.Lock(l))
		if en.writer() == self {
			e.mem.Unlock(l, uint32(en))
			if load {
				old = t.loadHeld(a)
			}
			return old, false
		}
		if en.writer() != 0 {
			var evicted bool
			if wait, evicted = e.evictWriter(&en); evicted {
				doomed++
			}
		}
		if wait == nil {
			if !t.fitsWrite(l, len(t.writeLines)) {
				// Abort outside the line lock: teardown waits for it.
				overCap = true
			} else {
				t.occupySet(l)
				// Doom all other active readers of the line.
				mask := en.readers() &^ uint32(t.bit)
				for mask != 0 {
					s := bits.TrailingZeros32(mask)
					mask &^= 1 << uint(s)
					other := e.slots[s].Load()
					if other == nil {
						continue
					}
					switch other.status.Load() {
					case stActive, stDoomed:
						if doom(other) {
							doomed++
						}
						// Bit stays set until the victim cleans up; it is
						// doomed, so the stale bit is harmless.
					case stCommitting, stCommitted:
						// A committing reader serializes before this
						// writer; its monitor no longer matters.
					}
				}
				en.setWriter(self)
				acquired = true
			}
		}
		e.mem.Unlock(l, uint32(en))
		// Requester-side conflict attribution: one event per rival doomed
		// over this line (outside the line lock; the hook is htmsafe).
		if t.ps != nil {
			for ; doomed > 0; doomed-- {
				t.ps.RecordConflict(uint32(l))
			}
		}
		if overCap {
			t.profCapacity(l)
			t.abort(abort.Capacity, 0)
		}
		if acquired {
			t.writeLines = append(t.writeLines, l)
			if load {
				old = t.loadHeld(a)
			}
			return old, true
		}
		waitNotCommitting(wait)
		t.checkDoomed()
	}
}

// HeldWord returns memory's word at a, on a line in the transaction's write
// set: the word as it was when the line's write monitor was taken, whatever
// the transaction has buffered for it since. It is one plain load, with no
// monitor work and no doom check, so a caller that reads many such words in
// a row has their cache misses overlap. The value counts only if the
// transaction then commits: any other store to the line, transactional or
// not, dooms the holder before it lands, and Commit's doom check turns that
// doom into an abort.
func (t *Txn) HeldWord(a mem.Addr) uint64 { return t.eng.mem.RawLoad(a) }

// loadHeld returns the word at a on a line whose write monitor the
// transaction holds. As in Read, the status is checked after the load: a
// rival that stores the word must doom the holder first.
func (t *Txn) loadHeld(a mem.Addr) uint64 {
	v := t.eng.mem.RawLoad(a)
	t.abortIfDoomed()
	return v
}

// Commit atomically publishes the write buffer (_xend). If the transaction
// lost a conflict it unwinds with the abort panic instead, exactly like any
// other transactional operation.
func (t *Txn) Commit() {
	t.checkDoomed()
	if in := t.eng.inj; in != nil {
		if r, code, ok := in.Draw(fault.SiteHTMCommit, t.slot); ok {
			t.abortInjected(r, code)
		}
	}
	if t.cold {
		t.loadCold()
	}
	if !t.status.CompareAndSwap(stActive, stCommitting) {
		t.abort(abort.Conflict, 0)
	}
	// Each line is stored without its lock and then its write monitor is
	// released with one CAS, before the transaction as a whole is
	// stCommitted. Until a line is released it names a stCommitting writer,
	// so every other accessor waits (waitNotCommitting, observer retry);
	// once released it holds only committed words. No reader can pair a
	// released line's new words with another line's old ones: a transaction
	// that read any of these lines before this commit was doomed when the
	// write monitor was taken, and one that reads a line not yet stored
	// waits for it. The buffer is walked youngest first so that a line's
	// first entry is the last of that line to be stored. A store waits out
	// a held line lock first, as a locked store would, so a line locked
	// before the commit reaches it keeps its words until it is unlocked.
	//
	// The CAS that releases a line's write monitor also clears this
	// transaction's reader bit on it, which releaseMonitors then finds clear
	// (if the CAS loses to a lock holder, dropWriter leaves the bit to
	// releaseMonitors). Nothing can tell: every writer already passes over
	// a committing reader, and a non-transactional write does too.
	e := t.eng
	release := writerMask | t.bit
	for i := range t.lineBuf {
		le := &t.lineBuf[i]
		base := mem.Addr(le.l) * mem.LineWords
		mon, en := e.unlockedEntry(le.l)
		for j, v := range le.vals {
			e.mem.RawStore(base+mem.Addr(j), v)
		}
		if !mon.CompareAndSwap(uint32(en), uint32(en&^release)) {
			e.dropWriter(le.l, t.self)
		}
	}
	for i := len(t.wb) - 1; i >= 0; i-- {
		w := &t.wb[i]
		l := mem.LineOf(w.addr)
		mon := e.mem.Monitor(l) // unlockedEntry, inlined by hand
		en := entry(mon.Load())
		if en&lockBit != 0 {
			en = entry(e.mem.Unlocked(l))
		}
		e.mem.RawStore(w.addr, w.val)
		if w.first && !mon.CompareAndSwap(uint32(en), uint32(en&^release)) {
			e.dropWriter(l, t.self)
		}
	}
	t.status.Store(stCommitted)
	t.finish(true)
	e.stats.Commits.Add(1)
	t.profFinish(abort.None)
}

// loadCold loads each line of the write buffer once, in one pass of plain
// loads before Commit's first locked instruction, so that their cache misses
// overlap; the store and monitor CAS that Commit then runs per line hit in
// cache, where each store would otherwise miss in turn behind the previous
// line's CAS. Commit runs it only after a Write: a transaction that wrote
// through Overwrite and Add alone has loaded every line already (HeldWord,
// Add's own load), and a pass over them would be pure cost.
func (t *Txn) loadCold() {
	m := t.eng.mem
	var sum uint64
	for i := range t.wb {
		if t.wb[i].first {
			sum += m.RawLoad(t.wb[i].addr)
		}
	}
	t.coldSum = sum
}

// releaseMonitors removes this transaction's read monitor registrations
// and, unless Commit already released them line by line, its write monitors.
// After a commit, a line that was also written has its reader bit clear
// already.
func (t *Txn) releaseMonitors(committed bool) {
	e := t.eng
	for _, l := range t.readLines {
		e.dropReader(l, t.bit)
	}
	if committed {
		return
	}
	for _, l := range t.writeLines {
		e.dropWriter(l, t.self)
	}
}

// unlockedEntry returns line l's monitor word and, once the line's lock is
// clear, its entry.
func (e *Engine) unlockedEntry(l mem.Line) (*atomic.Uint32, entry) {
	mon := e.mem.Monitor(l)
	en := entry(mon.Load())
	if en&lockBit != 0 {
		en = entry(e.mem.Unlocked(l))
	}
	return mon, en
}

// dropReader clears bit, a slot's reader bit, from line l's entry with one
// CAS, or none if it is clear already. The CAS waits while the line is
// locked, so a lock holder's reader mask stays exact: the slot is not free
// for its next transaction until the holder is done, and the holder cannot
// doom that one through this bit.
func (e *Engine) dropReader(l mem.Line, bit entry) {
	for {
		mon, en := e.unlockedEntry(l)
		if en&bit == 0 || mon.CompareAndSwap(uint32(en), uint32(en&^bit)) {
			return
		}
	}
}

// dropWriter clears line l's writer field with one CAS, waiting while the
// line is locked, if it still names self (slot+1): a doomed writer may have
// lost the monitor to a rival.
func (e *Engine) dropWriter(l mem.Line, self entry) {
	for {
		mon, en := e.unlockedEntry(l)
		if en.writer() != self || mon.CompareAndSwap(uint32(en), uint32(en&^writerMask)) {
			return
		}
	}
}

// waitNotCommitting spins until the other transaction leaves the committing
// state. Called without holding any line lock.
func waitNotCommitting(other *Txn) {
	for other.status.Load() == stCommitting {
		runtime.Gosched()
	}
}

// NonTxRead implements mem.Observer: a non-transactional read aborts any
// hardware transaction holding the line in its write set, or asks the
// caller to retry if that transaction is mid-commit.
func (e *Engine) NonTxRead(l mem.Line, mon uint32) (uint32, bool) {
	en := entry(mon)
	if en.writer() != 0 {
		if wait, _ := e.evictWriter(&en); wait != nil {
			return mon, true
		}
	}
	return uint32(en), false
}

// NonTxWrite implements mem.Observer: a non-transactional write aborts any
// hardware transaction holding the line in its read or write set.
func (e *Engine) NonTxWrite(l mem.Line, mon uint32) (uint32, bool) {
	en := entry(mon)
	if en.writer() != 0 {
		if wait, _ := e.evictWriter(&en); wait != nil {
			return mon, true
		}
	}
	mask := en.readers()
	for mask != 0 {
		s := bits.TrailingZeros32(mask)
		mask &^= 1 << uint(s)
		other := e.slots[s].Load()
		if other == nil {
			continue
		}
		switch other.status.Load() {
		case stActive, stDoomed:
			doom(other)
		case stCommitting, stCommitted:
			// A committing reader serializes before this write.
		}
	}
	return uint32(en), false
}
