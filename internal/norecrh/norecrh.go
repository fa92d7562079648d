// Package norecrh implements Reduced Hardware NOrec (Matveev & Shavit),
// the HybridTM baseline of the paper's evaluation.
//
// NOrecRH first tries the whole transaction in hardware (5 attempts,
// subscribing to NOrec's sequence lock so hardware and software
// transactions stay mutually consistent). Transactions that fail in
// hardware run the NOrec software protocol, but their commit — validation
// against the sequence number plus the write-back — executes as one small
// ("reduced") hardware transaction, eliding the sequence lock. If even the
// reduced transaction cannot commit in hardware (e.g. the write-back
// exceeds capacity), the commit falls back to NOrec's original CAS-locked
// write-back.
//
// NOrecRH inherits NOrec's single global sequence lock and is likewise
// domain-oblivious: every address takes domain-0 semantics (the
// single-domain topology of internal/domain); sharded memory domains are a
// Part-HTM (internal/core) mechanism.
package norecrh

import (
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

const codeSeqLocked uint8 = 1
const codeSeqMoved uint8 = 2

type retryPanic struct{}

// Config tunes NOrecRH.
type Config struct {
	// HWRetries is the number of full-hardware attempts before switching
	// to the software path (5 in the paper's evaluation).
	HWRetries int
}

// DefaultConfig matches the paper's evaluation.
func DefaultConfig() Config { return Config{HWRetries: 5} }

// System is a NOrecRH instance.
type System struct {
	m       *mem.Memory
	eng     *htm.Engine
	seq     mem.Addr
	cfg     Config
	threads []*thread
	stats   tm.Stats
	run     *exec.Runner
}

type readRec struct {
	addr mem.Addr
	val  uint64
}

type thread struct {
	id        int
	ts        uint64
	readLog   []readRec
	redo      map[mem.Addr]uint64
	redoOrder []mem.Addr
	sh        *tm.Shard
	xtxn      exec.Txn
	body      func(tm.Tx)
}

// New creates a NOrecRH system over the engine's memory.
func New(eng *htm.Engine, maxThreads int, cfg Config) *System {
	if cfg.HWRetries <= 0 {
		cfg.HWRetries = 5
	}
	s := &System{
		m:       eng.Memory(),
		eng:     eng,
		seq:     eng.Memory().AllocLines(1),
		cfg:     cfg,
		threads: make([]*thread, maxThreads),
	}
	// HWRetries full-hardware attempts gated on the sequence lock being
	// even (resource aborts stop retrying early), then the unbounded NOrec
	// software loop with the reduced-hardware commit.
	s.run = exec.New(exec.Policy{
		FastAttempts:       cfg.HWRetries,
		StopFastOnResource: true,
	}, &s.stats, func() bool { return s.m.Load(s.seq)&1 == 0 })
	for i := range s.threads {
		t := &thread{id: i, redo: make(map[mem.Addr]uint64, 16)}
		t.sh = s.stats.Shard(i)
		x := &swTx{s: s, t: t}
		t.xtxn = exec.Txn{
			// Kernel dispatch: the level runs the caller's body, unbounded at
			// this site; a capacity abort stops hardware retries
			// (StopFastOnResource) and falls to the NOrec software path.
			// parthtm:bigtx — dispatch wrapper, bounded at the workload site
			Fast: func() htm.Result { return s.hwAttempt(t.id, t.body) },
			Mid:  func() bool { return s.swAttempt(t, x, t.body) },
			Slow: func() { panic("norecrh: unbounded software loop cannot fall through") },
		}
		s.threads[i] = t
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "NOrecRH" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor, profiler, and degradation state (see
// exec.Runner).
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// Engine returns the underlying HTM engine.
func (s *System) Engine() *htm.Engine { return s.eng }

// ---------------------------------------------------------------------------
// Full-hardware fast path

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

func (s *System) hwAttempt(thread int, body func(tm.Tx)) (res htm.Result) {
	x := &hwTx{s: s, thread: thread}
	defer func() {
		r := recover()
		if ar, ok := htm.AsAbort(r); ok {
			res = ar
		} else if r != nil {
			if x.ht != nil {
				x.ht.Cancel()
			}
			panic(r)
		}
	}()
	ht := s.eng.Begin(thread)
	x.ht = ht
	seq := ht.Read(s.seq)
	if seq&1 != 0 {
		ht.Abort(codeSeqLocked)
	}
	body(x)
	if x.wrote {
		// Bump the sequence number (staying even) inside the hardware
		// transaction so software readers revalidate against our writes.
		ht.Write(s.seq, seq+2)
	}
	ht.Commit()
	return htm.Result{Committed: true}
}

// ---------------------------------------------------------------------------
// Software path: NOrec with a reduced-hardware commit

func (t *thread) reset() {
	t.readLog = t.readLog[:0]
	for _, a := range t.redoOrder {
		delete(t.redo, a)
	}
	t.redoOrder = t.redoOrder[:0]
}

func (s *System) begin(t *thread) {
	for {
		ts := s.m.Load(s.seq)
		if ts&1 == 0 {
			t.ts = ts
			return
		}
		runtime.Gosched()
	}
}

func (s *System) revalidate(t *thread) {
	for {
		ts := s.m.Load(s.seq)
		if ts&1 != 0 {
			runtime.Gosched()
			continue
		}
		for _, r := range t.readLog {
			if s.m.Load(r.addr) != r.val {
				panic(retryPanic{})
			}
		}
		if s.m.Load(s.seq) == ts {
			t.ts = ts
			return
		}
	}
}

func (s *System) read(t *thread, a mem.Addr) uint64 {
	if v, ok := t.redo[a]; ok {
		return v
	}
	for {
		v := s.m.Load(a)
		if s.m.Load(s.seq) == t.ts {
			t.readLog = append(t.readLog, readRec{addr: a, val: v})
			return v
		}
		s.revalidate(t)
	}
}

func (t *thread) write(a mem.Addr, v uint64) {
	if _, dup := t.redo[a]; !dup {
		t.redoOrder = append(t.redoOrder, a)
	}
	t.redo[a] = v
}

// commit performs the reduced hardware transaction: check the sequence
// number is still the snapshot, write everything back, and bump the
// sequence, all atomically in hardware. Capacity failures fall back to the
// original NOrec locked write-back.
func (s *System) commit(t *thread) {
	if len(t.redoOrder) == 0 {
		return
	}
	for {
		start := time.Now()
		res := s.eng.Execute(t.id, func(ht *htm.Txn) {
			if ht.Read(s.seq) != t.ts {
				ht.Abort(codeSeqMoved)
			}
			for _, a := range t.redoOrder {
				ht.Write(a, t.redo[a])
			}
			ht.Write(s.seq, t.ts+2)
		})
		if res.Committed {
			// Writers serialize on the sequence word even in hardware.
			t.sh.AddSerial(time.Since(start))
			return
		}
		t.sh.RecordAbort(res.Reason)
		if res.Injected {
			t.sh.FaultsInjected.Inc()
		}
		if res.Reason == htm.Capacity || res.Reason == htm.Other {
			// The reduced transaction itself does not fit: software
			// write-back under the sequence lock.
			for !s.m.CAS(s.seq, t.ts, t.ts+1) {
				s.revalidate(t)
			}
			wb := time.Now()
			for _, a := range t.redoOrder {
				s.m.Store(a, t.redo[a])
			}
			s.m.Store(s.seq, t.ts+2)
			t.sh.AddSerial(time.Since(wb))
			return
		}
		// Conflict or a moved sequence number: revalidate (which may abort
		// the transaction) and try the reduced commit again.
		s.revalidate(t)
	}
}

type swTx struct {
	s *System
	t *thread
}

var _ tm.Tx = (*swTx)(nil)

func (x *swTx) Thread() int { return x.t.id }
func (x *swTx) Pause()      {}
func (x *swTx) Read(a mem.Addr) uint64 {
	tm.Spin(tm.SWReadBarrier) // modelled barrier cost (see tm package docs)
	return x.s.read(x.t, a)
}

func (x *swTx) Write(a mem.Addr, v uint64) {
	tm.Spin(tm.SWWriteBarrier)
	x.t.write(a, v)
}

// WriteLocal stores thread-private data directly, outside the redo log.
func (x *swTx) WriteLocal(a mem.Addr, v uint64) { x.s.m.Store(a, v) }
func (x *swTx) Work(c int64)                    { tm.Spin(c) }
func (x *swTx) NonTxWork(c int64)               { tm.Spin(c) }

// Atomic implements tm.System. The exec kernel drives the schedule —
// gated hardware attempts, then the unbounded software loop — and records
// all commit/abort outcomes.
func (s *System) Atomic(thread int, body func(tm.Tx)) {
	t := s.threads[thread]
	t.body = body
	s.run.Run(thread, &t.xtxn)
	t.body = nil
}

func (s *System) swAttempt(t *thread, x *swTx, body func(tm.Tx)) (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, isRetry := r.(retryPanic); isRetry {
			ok = false
			return
		}
		panic(r)
	}()
	t.reset()
	s.begin(t)
	body(x)
	s.commit(t)
	return true
}
