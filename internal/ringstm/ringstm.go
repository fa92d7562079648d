// Package ringstm implements RingSTM (Spear, Michael, von Praun — SPAA
// 2008), the paper's second STM baseline and the origin of the global-ring
// validation scheme Part-HTM reuses.
//
// A transaction tracks its reads and writes in Bloom-filter signatures and
// buffers its writes. Commit joins the global ring: validate the read
// signature against every entry committed since the snapshot, claim the
// next timestamp with a CAS, publish the write signature, write back, and
// mark the entry complete. Readers that observe a newer timestamp validate
// their signature against the new suffix before trusting the value. As in
// the paper's evaluation, the ring has the same size and signature geometry
// as Part-HTM's.
//
// The package is the protocol only; the redo log, the tm.Tx view, the retry
// loop and the tm.System shell are internal/stm's.
package ringstm

import (
	"time"

	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/stm"
	"repro/internal/tm"
)

// System is a RingSTM instance.
type System struct {
	*stm.System
	r *ring.Ring
}

// New creates a RingSTM system on m with the given ring size (the paper
// uses the same ring configuration as Part-HTM).
func New(m *mem.Memory, maxThreads, ringSize int) *System {
	r := ring.New(m, ringSize)
	return &System{
		System: stm.New("RingSTM", m, maxThreads, func(sh *tm.Shard) stm.Protocol {
			return &txn{m: m, r: r, sh: sh}
		}),
		r: r,
	}
}

// txn is one thread's RingSTM transaction.
type txn struct {
	m        *mem.Memory
	r        *ring.Ring
	sh       *tm.Shard
	ts       uint64
	readSig  sig.Signature
	writeSig sig.Signature
	redo     stm.Redo
}

// Begin snapshots the ring timestamp, waiting for that entry's write-back
// to complete so every committed value at or before the snapshot is
// visible.
func (t *txn) Begin() {
	t.readSig.Clear()
	t.writeSig.Clear()
	t.redo.Reset()
	ts := t.r.Timestamp()
	t.r.WaitDone(ts)
	t.ts = ts
}

// advance validates the read signature against entries committed in
// (t.ts, now] and moves the snapshot forward.
func (t *txn) advance(now uint64) {
	if !t.r.Validate(&t.readSig, t.ts, now) {
		stm.Retry()
	}
	t.r.WaitDone(now)
	t.ts = now
}

func (t *txn) Read(a mem.Addr) uint64 {
	if v, ok := t.redo.Get(a); ok {
		return v
	}
	t.readSig.Add(uint32(a))
	v := t.m.Load(a)
	if now := t.r.Timestamp(); now != t.ts {
		// Something committed since the snapshot: the value just read is
		// only safe if no new entry wrote anything we have read.
		t.advance(now)
		v = t.m.Load(a)
	}
	return v
}

func (t *txn) Write(a mem.Addr, v uint64) {
	t.writeSig.Add(uint32(a))
	t.redo.Put(a, v)
}

func (t *txn) Commit() {
	redo := t.redo.Entries()
	if len(redo) == 0 {
		return
	}
	tsAddr := t.r.TimestampAddr()
	for {
		now := t.m.Load(tsAddr)
		if now != t.ts {
			t.advance(now)
		}
		if t.m.CAS(tsAddr, now, now+1) {
			t.ts = now + 1
			break
		}
	}
	start := time.Now()
	t.r.PublishSW(t.ts, &t.writeSig)
	for _, e := range redo {
		t.m.Store(e.Addr, e.Val)
	}
	t.r.SetDone(t.ts)
	t.sh.AddSerial(time.Since(start))
}
