// Package domain shards the transactional-memory substrate into N
// independent memory domains. Each domain owns its own region of the
// simulated memory, its own RingSTM-style ring of committed write
// signatures, and its own shared write-locks signature, so transactions
// confined to one domain contend only on that domain's metadata.
//
// # Routing
//
// The address space is routed to domains at a fixed chunk granularity
// (ChunkLines cache lines): a flat table maps each chunk to its owning
// domain, and Of is a single table lookup. Chunks default to domain 0, so
// every address allocated outside AllocLinesIn — protocol metadata, plain
// mem.Alloc data, the Part-HTM-O lock-cell shadow — takes domain-0
// semantics. AllocLinesIn carves chunk-aligned arenas per domain
// (mem.AllocLinesAligned), so a cache line never straddles two domains and
// the routing table is exact. Only Part-HTM (internal/core) routes per
// domain; every other system keeps one global lock, sequence lock or ring.
//
// # Single-domain identity
//
// With N=1 the set degenerates to exactly today's topology: one ring and
// one write-locks signature allocated in the same order and the same
// number of words as before the refactor, Of always answers 0 without
// touching the table, AllocLinesIn(0, n) is a plain AllocLines(n), and
// SnapshotTimestamps performs exactly one timestamp load. Single-domain
// protocols are therefore byte-for-byte identical to the pre-domain code.
//
// # Cross-domain commit
//
// Transactions spanning domains coordinate commit by extending Part-HTM's
// sub-HTM stitching across every touched domain, always in canonical
// (ascending) domain order: write-locks signatures are acquired per domain
// in ascending order at each sub-commit, each written domain's timestamp
// is claimed with a validate-and-CAS and its ring entry published
// immediately (ClaimTimestamp/Publish), read-only domains are re-validated
// after the last publication, and locks are released in reverse order.
// Because a claimed timestamp is always published before the committer
// blocks on anything else, ring waiters only ever chain backwards within
// one domain's timestamp order — no cross-domain wait cycle can form.
package domain

import (
	"math/bits"

	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/tm"
)

const (
	// ChunkLines is the addr→domain routing granularity in cache lines.
	// 512 lines = 32 KiB per chunk keeps the routing table tiny (one byte
	// per 32 KiB) while wasting at most one chunk of slack per arena grab.
	ChunkLines = 512
	// ChunkWords is the routing granularity in words.
	ChunkWords = ChunkLines * mem.LineWords

	// MaxDomains bounds the domain count: touched-domain sets are tracked
	// as single-word bitmasks.
	MaxDomains = 64
)

// Config parameterizes a domain set.
type Config struct {
	// N is the number of domains; 0 and 1 both mean a single domain.
	N int
	// RingSize is each domain's ring capacity in entries (power of two).
	RingSize int
}

// dom is one domain's metadata. The ring and the write-locks signature are
// separate line-aligned allocations, so domain-owned control structures
// never share a cache line with each other or with a neighbouring domain
// (no false sharing across domains).
type dom struct {
	ring   *ring.Ring
	wlocks mem.Addr

	// Chunk-aligned allocation arena for this domain's data.
	arenaNext, arenaEnd mem.Addr
}

// Domains is a set of N memory domains over one simulated memory. Metadata
// construction and allocation are single-threaded (setup time); routing and
// the commit helpers are safe for concurrent use.
type Domains struct {
	m    *mem.Memory
	n    int
	doms []dom

	// table maps chunk index → owning domain; chunks never carved by
	// AllocLinesIn stay 0 (domain-0 semantics for unrouted addresses).
	table []uint8
}

// New builds a domain set: per domain, one ring and one line-aligned
// write-locks signature, allocated in ascending domain order.
func New(m *mem.Memory, cfg Config) *Domains {
	n := cfg.N
	if n <= 0 {
		n = 1
	}
	if n > MaxDomains {
		panic("domain: more than MaxDomains domains")
	}
	d := &Domains{
		m:    m,
		n:    n,
		doms: make([]dom, n),
	}
	if n > 1 {
		d.table = make([]uint8, (m.Words()+ChunkWords-1)/ChunkWords)
	}
	for i := range d.doms {
		d.doms[i].ring = ring.New(m, cfg.RingSize)
		d.doms[i].wlocks = m.AllocLines(sig.Lines)
	}
	return d
}

// N returns the number of domains.
func (d *Domains) N() int { return d.n }

// Ring returns domain i's ring.
func (d *Domains) Ring(i int) *ring.Ring { return d.doms[i].ring }

// Wlocks returns the address of domain i's shared write-locks signature.
func (d *Domains) Wlocks(i int) mem.Addr { return d.doms[i].wlocks }

// Of routes a word address to its owning domain. Single-domain sets answer
// 0 unconditionally; otherwise it is one table lookup. Addresses never
// carved by AllocLinesIn (metadata, plain allocations) route to domain 0.
func (d *Domains) Of(a mem.Addr) int {
	if d.n == 1 {
		return 0
	}
	// ChunkWords is a power of two; the divide compiles to a shift.
	return int(d.table[a/ChunkWords])
}

// AllocLinesIn reserves n whole cache lines inside domain dm's region and
// returns the first word's address. Space is carved from the domain's
// arena, which grows in chunk-aligned grabs so routing stays exact; on a
// single-domain set it is exactly mem.AllocLines (identical layout to the
// pre-domain allocator). Setup-time only: not safe for concurrent use.
func (d *Domains) AllocLinesIn(dm, n int) mem.Addr {
	if dm < 0 || dm >= d.n {
		panic("domain: AllocLinesIn domain out of range")
	}
	if d.n == 1 {
		return d.m.AllocLines(n)
	}
	need := mem.Addr(n * mem.LineWords)
	da := &d.doms[dm]
	if da.arenaEnd-da.arenaNext < need {
		chunks := (n + ChunkLines - 1) / ChunkLines
		base := d.m.AllocLinesAligned(chunks*ChunkLines, ChunkLines)
		first := int(base) / ChunkWords
		for c := 0; c < chunks; c++ {
			d.table[first+c] = uint8(dm)
		}
		da.arenaNext, da.arenaEnd = base, base+mem.Addr(chunks*ChunkWords)
	}
	a := da.arenaNext
	da.arenaNext += need
	return a
}

// SnapshotTimestamps seeds start[d] for the domains a fresh attempt is
// born touching. A single-domain set performs exactly one load — the same
// read the pre-domain protocol issued at transaction start. Multi-domain
// sets load nothing: their footprints are discovered access by access, and
// the kernel records start[d] lazily at the first touch of each domain
// (every read of domain d happens at or after its first touch, so
// validation from that lazily-taken start still covers every read — no
// coherent cross-domain cut is needed, and single-domain transactions on a
// sharded topology pay one timestamp load instead of N).
func (d *Domains) SnapshotTimestamps(start []uint64) {
	if d.n == 1 {
		start[0] = d.doms[0].ring.Timestamp()
	}
}

// ClaimTimestamp claims the next commit timestamp of domain dm with the
// ring's validate-and-CAS loop: reads in that domain (readSig) are
// validated against every signature committed in (*start, now] before the
// CAS; on success *start is advanced to the claimed position. rollover
// reports that a failure was the ring lapping the validator rather than a
// genuine intersection.
//
// The caller MUST publish the claimed timestamp immediately (Publish)
// without blocking in between: validators of dm spin until the entry for
// the claimed timestamp appears, so an unpublished claim stalls the whole
// domain. That claim→publish immediacy, not the order in which a
// cross-domain commit visits its domains, is what makes the cross-domain
// commit deadlock-free: no committer ever waits while holding an
// unpublished claim.
func (d *Domains) ClaimTimestamp(dm int, readSig *sig.Signature, start *uint64) (ts uint64, ok, rollover bool) {
	r := d.doms[dm].ring
	tsAddr := r.TimestampAddr()
	for {
		now := d.m.Load(tsAddr)
		if now != *start {
			vok, roll := r.ValidateDetail(readSig, *start, now)
			if !vok {
				return 0, false, roll
			}
			*start = now
		}
		if d.m.CAS(tsAddr, now, now+1) {
			return now + 1, true, false
		}
	}
}

// Publish publishes pub as domain dm's ring entry for the claimed
// timestamp ts (software publication; see ClaimTimestamp).
func (d *Domains) Publish(dm int, ts uint64, pub *sig.Signature) {
	d.doms[dm].ring.PublishSW(ts, pub)
}

// ReleaseWlocks clears s's bits from domain dm's write-locks signature.
func (d *Domains) ReleaseWlocks(dm int, s *sig.Signature) {
	w := d.doms[dm].wlocks
	for i := range s {
		if s[i] != 0 {
			d.m.AndNot(w+mem.Addr(i), s[i])
		}
	}
}

// TxnState is one transaction's per-domain footprint: read, write, and
// aggregate-write signatures plus a validation start time per domain, and
// single-word bitmasks of the domains touched and written by the current
// attempt. The signatures are indexed by domain; only domains present in
// Touched hold meaningful (possibly non-empty) state, and Reset clears
// exactly those, so attempts pay for the domains they used, not for N.
type TxnState struct {
	Read  []sig.Signature
	Write []sig.Signature
	Agg   []sig.Signature
	Start []uint64

	// Touched and Wrote are bitmasks over domain indices (MaxDomains=64).
	Touched uint64
	Wrote   uint64

	// Base is the mask Reset restores Touched to. Single-domain states set
	// it to 1 — domain 0 counts as permanently touched, mirroring the
	// pre-domain protocol, which unconditionally validated against and
	// acquired the one ring and write-locks signature even for footprint-
	// free attempts. Multi-domain states start from 0: footprint-driven.
	Base uint64

	// Clean is an attempt's promise that it has added to no signature since
	// the last Reset, so that the next Reset need not clear them. Reset drops
	// the promise: an attempt that does not make it again is cleared after.
	Clean bool

	sh *tm.Shard
}

// NewTxnState allocates per-domain transaction state for n domains, owned
// by the thread whose stats shard is sh.
func NewTxnState(n int, sh *tm.Shard) *TxnState {
	t := &TxnState{
		Read:  make([]sig.Signature, n),
		Write: make([]sig.Signature, n),
		Agg:   make([]sig.Signature, n),
		Start: make([]uint64, n),
		sh:    sh,
	}
	if n == 1 {
		t.Base = 1
	}
	t.Touched = t.Base
	return t
}

// Shard returns the owning thread's stats shard. Like exec.Thread.Shard,
// the result is owner-bound: only the thread owning this TxnState may
// increment counters through it (see tm.Counter).
func (t *TxnState) Shard() *tm.Shard { return t.sh }

// Count returns the number of domains the current attempt touched.
func (t *TxnState) Count() int { return bits.OnesCount64(t.Touched) }

// Reset clears the signatures of every touched domain, unless the attempt
// kept them Clean, and restores the masks (Touched to Base, Wrote to empty,
// Clean to false), preparing the state for a fresh attempt.
func (t *TxnState) Reset() {
	if !t.Clean {
		for m := t.Touched; m != 0; m &= m - 1 {
			d := bits.TrailingZeros64(m)
			t.Read[d].Clear()
			t.Write[d].Clear()
			t.Agg[d].Clear()
		}
	}
	t.Touched, t.Wrote, t.Clean = t.Base, 0, false
}

// Validate re-validates every touched domain's reads against that domain's
// ring, advancing the per-domain start times, in canonical (ascending)
// domain order. ok=false means the transaction must abort; rollover
// reports that the failure was a ring lapping the validator.
func (d *Domains) Validate(t *TxnState) (ok, rollover bool) {
	for m := t.Touched; m != 0; m &= m - 1 {
		dm := bits.TrailingZeros64(m)
		r := d.doms[dm].ring
		now := r.Timestamp()
		if now == t.Start[dm] {
			continue
		}
		vok, roll := r.ValidateDetail(&t.Read[dm], t.Start[dm], now)
		if !vok {
			return false, roll
		}
		t.Start[dm] = now
	}
	return true, false
}
