// Package norecrh implements Reduced Hardware NOrec (Matveev & Shavit),
// the HybridTM baseline of the paper's evaluation.
//
// NOrecRH first tries the whole transaction in hardware (5 attempts,
// subscribing to NOrec's sequence lock so hardware and software
// transactions stay mutually consistent). Transactions that fail in
// hardware run the NOrec software protocol — internal/norec's own
// transaction — but their commit — validation against the sequence number
// plus the write-back — executes as one small ("reduced") hardware
// transaction, eliding the sequence lock. If even the reduced transaction
// cannot commit in hardware (e.g. the write-back exceeds capacity), the
// commit falls back to NOrec's original CAS-locked write-back.
package norecrh

import (
	"fmt"
	"time"

	"repro/internal/abort"
	"repro/internal/exec"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/stm"
	"repro/internal/tm"
)

const codeSeqLocked uint8 = 1
const codeSeqMoved uint8 = 2

// hwRetries is the number of full-hardware attempts before switching to the
// software path (5 in the paper's evaluation).
const hwRetries = 5

// System is a NOrecRH instance.
type System struct {
	m       *mem.Memory
	eng     *htm.Engine
	seq     mem.Addr
	threads []*thread
	stats   tm.Stats
	run     *exec.Runner
}

type thread struct {
	body func(tm.Tx)
	xtxn exec.Txn
}

// New creates a NOrecRH system for up to maxThreads concurrent threads, at
// most htm.MaxSlots (it panics above), over the engine's memory.
func New(eng *htm.Engine, maxThreads int) *System {
	if maxThreads > htm.MaxSlots {
		panic(fmt.Sprintf("norecrh: %d threads, more than the engine's %d hardware contexts", maxThreads, htm.MaxSlots))
	}
	s := &System{
		m:       eng.Memory(),
		eng:     eng,
		seq:     eng.Memory().AllocLines(1),
		threads: make([]*thread, maxThreads),
	}
	// hwRetries full-hardware attempts gated on the sequence lock being
	// even (resource aborts stop retrying early), then the unbounded NOrec
	// software loop with the reduced-hardware commit.
	s.run = exec.New(exec.Policy{
		FastAttempts:       hwRetries,
		StopFastOnResource: true,
	}, &s.stats, func() bool { return s.m.Load(s.seq)&1 == 0 })
	for i := range s.threads {
		t := &thread{}
		s.threads[i] = t
		et := s.run.Thread(i)
		hw := &hwTx{s: s, thread: i}
		nt := norec.NewTxn(s.m, s.seq, et.Shard())
		sw := stm.NewTx(i, s.m, &swTxn{Txn: nt, s: s, et: et, id: i})
		t.xtxn = exec.Txn{
			// Kernel dispatch: the level runs the caller's body; a capacity
			// abort stops hardware retries (StopFastOnResource) and falls to
			// the NOrec software path, the guaranteed level: there is no Slow
			// to serialize onto.
			Fast: func() htm.Result { return hw.attempt(t.body) },
			Mid:  func() bool { return sw.Attempt(t.body) },
		}
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "NOrecRH" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor and profiler (see exec.Runner).
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// Engine returns the underlying HTM engine.
func (s *System) Engine() *htm.Engine { return s.eng }

// Atomic implements tm.System. The exec kernel drives the schedule —
// gated hardware attempts, then the unbounded software loop — and records
// all commit/abort outcomes.
func (s *System) Atomic(thread int, body func(tm.Tx)) {
	t := s.threads[thread]
	t.body = body
	s.run.Run(thread, &t.xtxn)
	t.body = nil
}

// ---------------------------------------------------------------------------
// Full-hardware fast path

// hwTx is a thread's tm.Tx view of its current full-hardware attempt.
type hwTx struct {
	s      *System
	thread int
	ht     *htm.Txn
	wrote  bool
}

var _ tm.Tx = (*hwTx)(nil)

func (x *hwTx) Thread() int { return x.thread }
func (x *hwTx) Pause()      {}

func (x *hwTx) Read(a mem.Addr) uint64     { return x.ht.Read(a) }
func (x *hwTx) Write(a mem.Addr, v uint64) { x.ht.Write(a, v); x.wrote = true }

// WriteLocal still costs hardware write capacity but does not make the
// transaction a writer for sequence-number purposes: private data needs no
// visibility.
func (x *hwTx) WriteLocal(a mem.Addr, v uint64) { x.ht.WriteLocal(a, v) }
func (x *hwTx) Work(c int64)                    { x.ht.Work(c); tm.Spin(c) }
func (x *hwTx) NonTxWork(c int64)               { x.ht.Work(c); tm.Spin(c) }

func (x *hwTx) attempt(body func(tm.Tx)) htm.Result {
	return x.s.eng.Execute(x.thread, func(ht *htm.Txn) {
		x.ht, x.wrote = ht, false
		seq := ht.Read(x.s.seq)
		if seq&1 != 0 {
			ht.Abort(codeSeqLocked)
		}
		body(x)
		if x.wrote {
			// Bump the sequence number (staying even) inside the hardware
			// transaction so software readers revalidate against our writes.
			ht.Write(x.s.seq, seq+2)
		}
	})
}

// ---------------------------------------------------------------------------
// Software path: NOrec with a reduced-hardware commit

// swTxn is norec's transaction with Commit replaced.
type swTxn struct {
	*norec.Txn
	s  *System
	et *exec.Thread
	id int
}

// Commit performs the reduced hardware transaction: check the sequence
// number is still the snapshot, write everything back, and bump the
// sequence, all atomically in hardware. Capacity failures fall back to the
// original NOrec locked write-back.
func (t *swTxn) Commit() {
	redo := t.Redo.Entries()
	if len(redo) == 0 {
		return
	}
	for {
		start := time.Now()
		ts := t.Snapshot()
		res := t.s.eng.Execute(t.id, func(ht *htm.Txn) {
			if ht.Read(t.s.seq) != ts {
				ht.Abort(codeSeqMoved)
			}
			for _, e := range redo {
				ht.Write(e.Addr, e.Val)
			}
			ht.Write(t.s.seq, ts+2)
		})
		if res.Committed {
			// Writers serialize on the sequence word even in hardware.
			t.et.Shard().AddSerial(time.Since(start))
			return
		}
		t.et.Shard().RecordAbort(res.Reason)
		t.et.NoteHWAbort(res)
		if res.Reason == abort.Capacity || res.Reason == abort.Other {
			// The reduced transaction itself does not fit: software
			// write-back under the sequence lock.
			t.Txn.Commit()
			return
		}
		// Conflict or a moved sequence number: revalidate (which may abort
		// the transaction) and try the reduced commit again.
		t.Revalidate()
	}
}
