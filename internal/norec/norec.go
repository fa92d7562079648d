// Package norec implements the NOrec software transactional memory of
// Dalessandro, Spear and Scott (PPoPP 2010), one of the paper's two STM
// baselines.
//
// NOrec uses a single global sequence lock and value-based validation: a
// transaction snapshots the (even) sequence number at begin, logs
// (address, value) pairs for its reads, buffers its writes, and commits by
// acquiring the sequence lock with a CAS, writing back, and releasing. Any
// time the sequence number moves, the read log is revalidated by value.
//
// The package is the protocol only; the redo log, the tm.Tx view, the retry
// loop and the tm.System shell are internal/stm's.
package norec

import (
	"runtime"
	"time"

	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/tm"
)

// System is a NOrec instance.
type System struct {
	*stm.System
	seq mem.Addr // global sequence lock (odd = write-back in progress)
}

// New creates a NOrec system on m for up to maxThreads threads.
func New(m *mem.Memory, maxThreads int) *System {
	seq := m.AllocLines(1)
	return &System{
		System: stm.New("NOrec", m, maxThreads, func(sh *tm.Shard) stm.Protocol {
			return NewTxn(m, seq, sh)
		}),
		seq: seq,
	}
}

// Txn is one thread's NOrec transaction over the sequence lock at seq. It
// is exported so that a hybrid (internal/norecrh) can run this software
// path and replace only Commit.
type Txn struct {
	m       *mem.Memory
	seq     mem.Addr
	sh      *tm.Shard
	ts      uint64
	readLog []stm.Entry
	Redo    stm.Redo
}

// NewTxn creates a thread's transaction; commits charge their serial
// write-back time to sh.
func NewTxn(m *mem.Memory, seq mem.Addr, sh *tm.Shard) *Txn {
	return &Txn{m: m, seq: seq, sh: sh}
}

// Snapshot returns the sequence number the transaction is consistent with.
func (t *Txn) Snapshot() uint64 { return t.ts }

// Begin waits for an even (unlocked) sequence number and snapshots it.
func (t *Txn) Begin() {
	t.readLog = t.readLog[:0]
	t.Redo.Reset()
	for {
		ts := t.m.Load(t.seq)
		if ts&1 == 0 {
			t.ts = ts
			return
		}
		runtime.Gosched()
	}
}

// Revalidate waits for an even sequence number, re-reads every logged
// location, and compares values. On a mismatch the transaction retries; on
// success the snapshot moves forward to the observed sequence number.
func (t *Txn) Revalidate() {
	for {
		ts := t.m.Load(t.seq)
		if ts&1 != 0 {
			runtime.Gosched()
			continue
		}
		for _, r := range t.readLog {
			if t.m.Load(r.Addr) != r.Val {
				stm.Retry()
			}
		}
		if t.m.Load(t.seq) == ts {
			t.ts = ts
			return
		}
	}
}

// Read performs a NOrec transactional read.
func (t *Txn) Read(a mem.Addr) uint64 {
	if v, ok := t.Redo.Get(a); ok {
		return v
	}
	for {
		v := t.m.Load(a)
		if t.m.Load(t.seq) == t.ts {
			t.readLog = append(t.readLog, stm.Entry{Addr: a, Val: v})
			return v
		}
		t.Revalidate()
	}
}

// Write buffers a NOrec transactional write.
func (t *Txn) Write(a mem.Addr, v uint64) { t.Redo.Put(a, v) }

// Commit acquires the sequence lock, writes back, and releases.
func (t *Txn) Commit() {
	redo := t.Redo.Entries()
	if len(redo) == 0 {
		return // read-only: every read was validated against its snapshot
	}
	for !t.m.CAS(t.seq, t.ts, t.ts+1) {
		t.Revalidate()
	}
	start := time.Now()
	for _, e := range redo {
		t.m.Store(e.Addr, e.Val)
	}
	t.m.Store(t.seq, t.ts+2)
	t.sh.AddSerial(time.Since(start))
}
