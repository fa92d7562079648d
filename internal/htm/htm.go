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
// What a simulated access costs the host is a stripe acquisition on its
// line (internal/mem), so the write path takes as few as it can:
//
//   - Word-wise writes are buffered in a slice of entries in first-write
//     order, found through an open-addressed index whose slots carry a
//     generation: emptying the buffer between transactions is a generation
//     bump, and rewriting a buffered word takes no stripe.
//   - Txn.Exchange is Read followed by Write as one access, for callers that
//     log the old value of what they write (the partitioned path's undo
//     log). The old word is loaded under the acquisition that registers the
//     write monitor, and the line enters the write set only.
//   - Commit releases each written line's monitor under the acquisition that
//     stores the line's last word, before the transaction as a whole is
//     committed; the comment at that loop says why no reader can see a mix.
//   - A read monitor is taken in one routine, readMonitored, whether one word
//     is loaded under it or a whole line; Read inlines only the case of a
//     line with no foreign writer.
//
// A transaction knows exactly what it holds — cycles charged, distinct lines
// read and written — and says so through Txn.Footprint, so the frameworks
// above budget in the engine's units without keeping a second count.
//
// A transaction body runs inside Engine.Execute; transactional operations
// panic with an internal sentinel when the transaction aborts, and Execute
// converts that into a Result, mirroring how control returns to _xbegin
// with an abort code on real hardware.
package htm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/prof"
)

// AbortReason classifies why a hardware transaction aborted, matching the
// categories of Intel TSX status codes used throughout the paper.
type AbortReason uint8

const (
	// NoAbort means the transaction committed.
	NoAbort AbortReason = iota
	// Conflict: another thread accessed a monitored cache line.
	Conflict
	// Capacity: the transactional footprint exceeded the cache resources.
	Capacity
	// Explicit: the program executed Abort (i.e. _xabort).
	Explicit
	// Other: any other hardware event — here, the timer-interrupt model.
	Other
)

// String returns the lower-case name of the reason.
func (r AbortReason) String() string {
	switch r {
	case NoAbort:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Explicit:
		return "explicit"
	case Other:
		return "other"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Result is what Execute reports back, standing in for the _xbegin status.
type Result struct {
	Committed bool
	Reason    AbortReason
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
	// transaction (AbortReason Other). Zero disables time aborts.
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

// Stats counts engine-level outcomes. Fields are updated atomically.
type Stats struct {
	Commits        atomic.Uint64
	AbortsConflict atomic.Uint64
	AbortsCapacity atomic.Uint64
	AbortsExplicit atomic.Uint64
	AbortsOther    atomic.Uint64
}

// Aborts returns the total number of aborts recorded.
func (s *Stats) Aborts() uint64 {
	return s.AbortsConflict.Load() + s.AbortsCapacity.Load() +
		s.AbortsExplicit.Load() + s.AbortsOther.Load()
}

// transaction status values.
const (
	stActive int32 = iota
	stDoomed
	stCommitting
	stCommitted
)

// entry is the per-line monitor record: which hardware contexts currently
// hold the line in their read set (bitmask by slot) and which one, if any,
// holds it in its write set. Entries are only touched under the line's
// memory stripe lock.
type entry struct {
	readers uint64
	writer  int16 // slot+1; 0 = none
}

// maxSlots is the number of hardware contexts (threads) an engine has: a
// line's readers are one bit each of a 64-bit mask.
const maxSlots = 64

// Engine is a best-effort HTM bound to one simulated memory.
type Engine struct {
	mem     *mem.Memory
	cfg     Config
	entries []entry
	slots   []atomic.Pointer[Txn]
	// recycled holds each slot's last transaction object for reuse: a slot
	// runs one transaction at a time, and a finished transaction can no
	// longer be reached through any monitor entry.
	recycled []*Txn
	rngs     []*rand.Rand
	nActive  atomic.Int32
	stats    Stats
	inj      *fault.Injector
	prof     *prof.Profile
}

// New creates an engine over m and installs it as m's strong-atomicity
// observer.
func New(m *mem.Memory, cfg Config) *Engine {
	e := &Engine{
		mem:      m,
		cfg:      cfg,
		entries:  make([]entry, m.Lines()),
		slots:    make([]atomic.Pointer[Txn], maxSlots),
		recycled: make([]*Txn, maxSlots),
		rngs:     make([]*rand.Rand, maxSlots),
	}
	for i := range e.rngs {
		e.rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
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
// it before any transaction runs; an injector covers the engine's 64 slots.
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

// fromFault maps an injected fault reason onto the engine's abort taxonomy.
func fromFault(r fault.Reason) AbortReason {
	switch r {
	case fault.Capacity:
		return Capacity
	case fault.Explicit:
		return Explicit
	case fault.Other:
		return Other
	}
	return Conflict
}

// abortPanic is the sentinel carried by the internal panic that unwinds an
// aborting transaction body back to Execute.
type abortPanic struct {
	reason   AbortReason
	code     uint8
	injected bool
}

// Txn is a running hardware transaction. It must only be used by the thread
// that called Execute, inside the body passed to Execute.
type Txn struct {
	eng    *Engine
	slot   int
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
	rng        *rand.Rand
	finished   bool

	// Pending injected abort, armed at Begin and delivered at the next
	// transactional operation — a hardware transaction aborts at some
	// instruction after _xbegin, never "instead of" it.
	injPending bool
	injReason  AbortReason
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
// (0 <= slot < 64; one slot per thread). From this point every
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
			wbIdx:   make([]uint64, 1<<wbInitLog2),
			wbShift: 32 - wbInitLog2,
			wbGen:   1,
			setOcc:  make([]uint8, e.cfg.WriteSets),
			rng:     e.rngs[slot],
		}
	} else {
		e.recycled[slot] = nil
		t.recycle()
	}
	t.quantum = e.cfg.Quantum
	t.injPending = false
	t.class = prof.ClassFast
	if e.prof != nil {
		t.ps = e.prof.Shard(slot)
	} else {
		t.ps = nil
	}
	if e.inj != nil {
		t.quantum = e.inj.Quantum(slot, e.cfg.Quantum)
		if r, code, ok := e.inj.Draw(fault.SiteHTMBegin, slot); ok {
			t.injReason, t.injCode, t.injPending = fromFault(r), code, true
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
// used via Begin. It never re-raises: callers multiplex abort panics with
// workload panics and their own control-flow sentinels, and dispatch on it.
func AsAbort(r any) (Result, bool) {
	if ap, ok := r.(abortPanic); ok {
		return Result{Committed: false, Reason: ap.reason, Code: ap.code, Injected: ap.injected}, true
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
		if ap, ok := r.(abortPanic); ok {
			res = Result{Committed: false, Reason: ap.reason, Code: ap.code, Injected: ap.injected}
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

func (e *Engine) recordAbort(r AbortReason) {
	switch r {
	case Conflict:
		e.stats.AbortsConflict.Add(1)
	case Capacity:
		e.stats.AbortsCapacity.Add(1)
	case Explicit:
		e.stats.AbortsExplicit.Add(1)
	case Other:
		e.stats.AbortsOther.Add(1)
	}
}

// SetProfileClass tags the transaction's footprint records with a
// commit-path class (prof.ClassFast, the Begin default, or prof.ClassSub
// for the partitioned path's sub-HTM windows). A plain field store,
// callable from inside the window.
func (t *Txn) SetProfileClass(c uint8) { t.class = c }

// profFinish records the transaction's footprint into its profiler shard:
// distinct read lines, write lines (monitored plus thread-private), and
// peak set occupancy. outcome is prof.OutcomeCommit or the abort reason's
// ordinal (the prof outcome constants mirror AbortReason value for value).
// The fields are still intact here — recycle, not finish, clears them.
func (t *Txn) profFinish(outcome uint8) {
	if t.ps == nil {
		return
	}
	_, r, w := t.Footprint()
	t.ps.RecordFootprint(t.class, outcome, r, w, int(t.maxOcc))
}

// abort tears the transaction down, records the outcome, and unwinds.
func (t *Txn) abort(reason AbortReason, code uint8) {
	t.finish(false)
	t.eng.recordAbort(reason)
	t.profFinish(uint8(reason))
	panic(abortPanic{reason: reason, code: code})
}

// abortInjected is abort for injector-forced faults: the unwound Result
// carries Injected so frameworks can account the fault separately.
func (t *Txn) abortInjected(reason AbortReason, code uint8) {
	t.finish(false)
	t.eng.recordAbort(reason)
	t.profFinish(uint8(reason))
	panic(abortPanic{reason: reason, code: code, injected: true})
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
		t.abortInjected(fromFault(r), code)
	}
}

// Abort explicitly aborts the transaction with a user code (_xabort).
func (t *Txn) Abort(code uint8) {
	t.abort(Explicit, code)
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
	t.eng.recordAbort(Explicit)
	t.profFinish(uint8(Explicit))
}

// Doomed reports whether the transaction has been aborted by a conflicting
// access and just hasn't noticed yet. The next transactional operation will
// unwind it.
func (t *Txn) Doomed() bool { return t.status.Load() == stDoomed }

// checkDoomed unwinds the transaction if a concurrent access doomed it or
// an injected begin-site fault is pending delivery.
func (t *Txn) checkDoomed() {
	if t.status.Load() == stDoomed {
		t.abort(Conflict, 0)
	}
	if t.injPending {
		t.injPending = false
		t.abortInjected(t.injReason, t.injCode)
	}
}

// step charges cycles against the timer quantum.
func (t *Txn) step(c int64) {
	t.cycles += c
	if q := t.quantum; q > 0 && t.cycles > q {
		t.abort(Other, 0)
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
// stripe lock, only when en.writer names a slot other than the requester's.
// An active writer is doomed and loses the monitor (doomed). One past the
// point of no return is handed back as wait: the requester releases the
// stripe, lets it leave stCommitting, and retries. A committed writer's
// entry is stale — its writes are already published — and is left alone.
func (e *Engine) evictWriter(en *entry) (wait *Txn, doomed bool) {
	other := e.slots[en.writer-1].Load()
	if other == nil {
		return nil, false
	}
	switch other.status.Load() {
	case stActive, stDoomed:
		if doom(other) {
			en.writer = 0
			return nil, true
		}
		return other, false
	case stCommitting:
		return other, false
	}
	return nil, false
}

// Read performs a transactional (monitored) read of the word at a.
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
	bit := uint64(1) << uint(t.slot)
	self := int16(t.slot + 1)

	// Fast path: the line is already monitored and carries no foreign
	// writer — the overwhelmingly common case on re-reads and scans.
	e.mem.Lock(l)
	en := &e.entries[l]
	if w := en.writer; w == 0 || w == self {
		first := en.readers&bit == 0
		en.readers |= bit
		v := e.mem.RawLoad(a)
		e.mem.Unlock(l)
		if first {
			t.readLines = append(t.readLines, l)
			t.admitReadLine()
		}
		return v
	}
	e.mem.Unlock(l)
	var out [1]uint64
	t.readMonitored(l, a, out[:])
	return out[0]
}

// readMonitored takes the read monitor on line l and loads len(out) words
// of it, starting at a, under the same stripe acquisition. A foreign active
// writer is evicted first (requester wins, as a cache-coherence invalidation
// would); one that is committing is waited out. own reports that the line is
// in the transaction's own write set: the words loaded are memory's, not its
// buffered ones.
func (t *Txn) readMonitored(l mem.Line, a mem.Addr, out []uint64) (own bool) {
	e := t.eng
	bit := uint64(1) << uint(t.slot)
	self := int16(t.slot + 1)
	for {
		var wait *Txn
		first, doomed := false, false
		e.mem.Lock(l)
		en := &e.entries[l]
		own = en.writer == self
		if en.writer != 0 && !own {
			wait, doomed = e.evictWriter(en)
		}
		if wait == nil {
			first = en.readers&bit == 0
			en.readers |= bit
			for i := range out {
				out[i] = e.mem.RawLoad(a + mem.Addr(i))
			}
		}
		e.mem.Unlock(l)
		if doomed {
			t.ps.RecordConflict(uint32(l))
		}
		if wait == nil {
			if first {
				t.readLines = append(t.readLines, l)
				t.admitReadLine()
			}
			return own
		}
		waitNotCommitting(wait)
		t.checkDoomed()
	}
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
		t.abort(Capacity, 0)
	}
	if cfg.ReadLinesSoft > 0 && n > cfg.ReadLinesSoft && cfg.ReadEvictProb > 0 {
		pressure := int(t.eng.nActive.Load()) - cfg.ReadFreeThreads
		if pressure > 0 {
			p := cfg.ReadEvictProb * float64(pressure)
			if t.rng.Float64() < p {
				t.profCapacity(t.readLines[n-1])
				t.abort(Capacity, 0)
			}
		}
	}
}

// Write performs a transactional write: buffered locally, monitored
// eagerly, published at commit. It must not touch a line written with
// WriteLine.
func (t *Txn) Write(a mem.Addr, v uint64) {
	t.checkDoomed()
	t.step(t.eng.cfg.WriteCost)
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

// Exchange is Read(a) followed by Write(a, v) as one access: it buffers v
// and returns the value the transaction saw at a before. It costs what the
// pair costs, but a word not yet buffered is loaded under the stripe
// acquisition that registers the write monitor, and the line enters the
// write set only: a write monitor already conflicts with every access a
// read monitor conflicts with, so the reader bit Read would set is
// redundant. Like Write it must not touch a line written with WriteLine.
func (t *Txn) Exchange(a mem.Addr, v uint64) (old uint64) {
	t.checkDoomed()
	t.step(t.eng.cfg.ReadCost + t.eng.cfg.WriteCost)
	t.wbReserve()
	i, slot := t.wbProbe(a)
	if i >= 0 {
		old, t.wb[i].val = t.wb[i].val, v
		return old
	}
	l := mem.LineOf(a)
	if len(t.lineBuf) > 0 {
		t.notLineWritten(l, "Exchange")
	}
	old, first := t.ensureWriteMonitor(l, a, true)
	t.wbInsert(slot, a, v, first)
	return old
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
		if cfg := &t.eng.cfg; cfg.WriteLines > 0 && len(t.writeLines)+t.localLines+1 > cfg.WriteLines || !t.occupySet(l) {
			t.profCapacity(l)
			t.abort(Capacity, 0)
		}
		t.localLines++
	}
	e := t.eng
	e.mem.Lock(l)
	e.mem.RawStore(a, v)
	e.mem.Unlock(l)
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

// occupySet takes a way of line l's cache set for a line entering the write
// buffer, monitored or thread-private, and reports false when the set is
// full.
func (t *Txn) occupySet(l mem.Line) bool {
	set := int(uint32(l)) % t.eng.cfg.WriteSets
	if int(t.setOcc[set])+1 > t.eng.cfg.WriteWays {
		return false
	}
	t.setOcc[set]++
	if t.setOcc[set] > t.maxOcc {
		t.maxOcc = t.setOcc[set]
	}
	return true
}

// ensureWriteMonitor puts line l into the write set: a no-op if already
// held, otherwise it applies the capacity model and registers the write
// monitor, dooming conflicting readers and writers (requester wins). One
// stripe acquisition in the common cases. With load it also returns the
// word at a (on line l) as memory held it under that same acquisition.
// acquired reports that this call registered the monitor.
func (t *Txn) ensureWriteMonitor(l mem.Line, a mem.Addr, load bool) (old uint64, acquired bool) {
	e := t.eng
	self := int16(t.slot + 1)
	for {
		var wait *Txn
		overCap := false
		doomed := 0
		e.mem.Lock(l)
		en := &e.entries[l]
		if en.writer == self {
			if load {
				old = e.mem.RawLoad(a)
			}
			e.mem.Unlock(l)
			return old, false
		}
		if en.writer != 0 {
			var evicted bool
			if wait, evicted = e.evictWriter(en); evicted {
				doomed++
			}
		}
		if wait == nil {
			if cfg := &e.cfg; cfg.WriteLines > 0 && len(t.writeLines)+1 > cfg.WriteLines || !t.occupySet(l) {
				// Abort outside the stripe lock: teardown re-acquires it.
				overCap = true
			} else {
				// Doom all other active readers of the line.
				mask := en.readers &^ (1 << uint(t.slot))
				for mask != 0 {
					s := bits.TrailingZeros64(mask)
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
				en.writer = self
				if load {
					old = e.mem.RawLoad(a)
				}
				acquired = true
			}
		}
		e.mem.Unlock(l)
		// Requester-side conflict attribution: one event per rival doomed
		// over this line (outside the stripe lock; the hook is htmsafe).
		if t.ps != nil {
			for ; doomed > 0; doomed-- {
				t.ps.RecordConflict(uint32(l))
			}
		}
		if overCap {
			t.profCapacity(l)
			t.abort(Capacity, 0)
		}
		if acquired {
			t.writeLines = append(t.writeLines, l)
			return old, true
		}
		waitNotCommitting(wait)
		t.checkDoomed()
	}
}

// Commit atomically publishes the write buffer (_xend). If the transaction
// lost a conflict it unwinds with the abort panic instead, exactly like any
// other transactional operation.
func (t *Txn) Commit() {
	t.checkDoomed()
	if in := t.eng.inj; in != nil {
		if r, code, ok := in.Draw(fault.SiteHTMCommit, t.slot); ok {
			t.abortInjected(fromFault(r), code)
		}
	}
	if !t.status.CompareAndSwap(stActive, stCommitting) {
		t.abort(Conflict, 0)
	}
	// Each line's write monitor is released under the stripe acquisition
	// that stores the line's last word, before the transaction as a whole
	// is stCommitted. Until a line is released it names a stCommitting
	// writer, so every other accessor waits (waitNotCommitting, observer
	// retry); once released it holds only committed words. No reader can
	// pair a released line's new words with another line's old ones: a
	// transaction that read any of these lines before this commit was
	// doomed when the write monitor was taken, and one that reads a line
	// not yet stored waits for it. The buffer is walked youngest first so
	// that a line's first entry is the last of that line to be stored.
	e := t.eng
	for i := range t.lineBuf {
		le := &t.lineBuf[i]
		base := mem.Addr(le.l) * mem.LineWords
		e.mem.Lock(le.l)
		for j, v := range le.vals {
			e.mem.RawStore(base+mem.Addr(j), v)
		}
		e.entries[le.l].writer = 0
		e.mem.Unlock(le.l)
	}
	for i := len(t.wb) - 1; i >= 0; i-- {
		w := &t.wb[i]
		l := mem.LineOf(w.addr)
		e.mem.Lock(l)
		e.mem.RawStore(w.addr, w.val)
		if w.first {
			e.entries[l].writer = 0
		}
		e.mem.Unlock(l)
	}
	t.status.Store(stCommitted)
	t.finish(true)
	e.stats.Commits.Add(1)
	t.profFinish(prof.OutcomeCommit)
}

// releaseMonitors removes this transaction's read monitor registrations
// and, unless Commit already released them line by line, its write monitors.
func (t *Txn) releaseMonitors(committed bool) {
	e := t.eng
	for _, l := range t.readLines {
		e.mem.Lock(l)
		e.entries[l].readers &^= 1 << uint(t.slot)
		e.mem.Unlock(l)
	}
	if committed {
		return
	}
	self := int16(t.slot + 1)
	for _, l := range t.writeLines {
		e.mem.Lock(l)
		if e.entries[l].writer == self {
			e.entries[l].writer = 0
		}
		e.mem.Unlock(l)
	}
}

// waitNotCommitting spins until the other transaction leaves the committing
// state. Called without holding any stripe lock.
func waitNotCommitting(other *Txn) {
	for other.status.Load() == stCommitting {
		runtime.Gosched()
	}
}

// NonTxRead implements mem.Observer: a non-transactional read aborts any
// hardware transaction holding the line in its write set, or asks the
// caller to retry if that transaction is mid-commit.
func (e *Engine) NonTxRead(l mem.Line) (retry bool) {
	en := &e.entries[l]
	if en.writer != 0 {
		if wait, _ := e.evictWriter(en); wait != nil {
			return true
		}
	}
	return false
}

// NonTxWrite implements mem.Observer: a non-transactional write aborts any
// hardware transaction holding the line in its read or write set.
func (e *Engine) NonTxWrite(l mem.Line) (retry bool) {
	en := &e.entries[l]
	if en.writer != 0 {
		if wait, _ := e.evictWriter(en); wait != nil {
			return true
		}
	}
	mask := en.readers
	for mask != 0 {
		s := bits.TrailingZeros64(mask)
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
	return false
}
