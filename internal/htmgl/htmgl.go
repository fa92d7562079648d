// Package htmgl implements the paper's primary baseline: best-effort HTM
// with the default single-global-lock software fallback (HTM-GL).
//
// A transaction is attempted as one hardware transaction up to Retries
// times (5 in the paper's evaluation), subscribing to the global lock at
// begin; when the attempts are exhausted the transaction runs under the
// global lock. The lemming effect is avoided as in the paper: an aborted
// transaction does not retry in hardware until the global lock is free.
//
// Hardware Lock Elision is this schedule with Retries = 1: one speculative
// trial subscribed to the lock word, then the lock itself.
package htmgl

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

const codeGLock uint8 = 1

// Config tunes HTM-GL.
type Config struct {
	// Retries is the number of hardware attempts before falling back to
	// the global lock.
	Retries int
}

// DefaultConfig matches the paper's evaluation (5 hardware retries).
func DefaultConfig() Config { return Config{Retries: 5} }

// System is an HTM-GL instance.
type System struct {
	m       *mem.Memory
	eng     *htm.Engine
	glock   mem.Addr
	threads []*thread
	stats   tm.Stats
	run     *exec.Runner
}

// thread is one thread's state, built once: every attempt reuses its tm.Tx
// view and kernel dispatch, so a transaction allocates nothing.
type thread struct {
	x    tx
	body func(tm.Tx)
	xtxn exec.Txn
}

// New creates an HTM-GL system for up to maxThreads concurrent threads, at
// most htm.MaxSlots (it panics above), over the engine's memory.
func New(eng *htm.Engine, maxThreads int, cfg Config) *System {
	if maxThreads > htm.MaxSlots {
		panic(fmt.Sprintf("htmgl: %d threads, more than the engine's %d hardware contexts", maxThreads, htm.MaxSlots))
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 5
	}
	s := &System{
		m:       eng.Memory(),
		eng:     eng,
		glock:   eng.Memory().AllocLines(1),
		threads: make([]*thread, maxThreads),
	}
	// Fast (hardware) attempts gated on the global lock, then the lock
	// itself: the paper's default fallback schedule, with no mid level. The
	// gate is advisory (hwAttempt re-reads the lock under a monitor), and the
	// lock word is only ever written non-transactionally: a raw load.
	s.run = exec.New(exec.Policy{FastAttempts: cfg.Retries},
		&s.stats, func() bool { return s.m.RawLoad(s.glock) == 0 })
	for i := range s.threads {
		t := &thread{x: tx{s: s, thread: i}}
		t.xtxn = exec.Txn{
			// Kernel dispatch: the level runs the caller's body; an oversized
			// transaction burns its retries and falls to the global lock — the
			// baseline behavior Part-HTM improves on.
			Fast: func() htm.Result { return s.hwAttempt(t) },
			Slow: func() { s.lockAttempt(t) },
		}
		s.threads[i] = t
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "HTM-GL" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor and profiler (see exec.Runner).
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// Engine returns the underlying HTM engine (Table 1 abort breakdown).
func (s *System) Engine() *htm.Engine { return s.eng }

// tx adapts the current path to tm.Tx.
type tx struct {
	s      *System
	thread int
	ht     *htm.Txn // nil on the global-lock path
}

var _ tm.Tx = (*tx)(nil)

func (x *tx) Thread() int { return x.thread }
func (x *tx) Pause()      {} // HTM-GL has no partitioned execution

func (x *tx) Read(a mem.Addr) uint64 {
	if x.ht != nil {
		return x.ht.Read(a)
	}
	return x.s.m.Load(a)
}

func (x *tx) Write(a mem.Addr, v uint64) {
	if x.ht != nil {
		x.ht.Write(a, v)
		return
	}
	x.s.m.Store(a, v)
}

// WriteLocal costs hardware write capacity like Write but skips the
// conflict monitor (the data is thread private); the lock path stores
// directly.
func (x *tx) WriteLocal(a mem.Addr, v uint64) {
	if x.ht != nil {
		x.ht.WriteLocal(a, v)
		return
	}
	x.s.m.Store(a, v)
}

func (x *tx) Work(c int64) {
	if x.ht != nil {
		x.ht.Work(c)
	}
	tm.Spin(c)
}

// NonTxWork still runs inside the hardware transaction on the fast path —
// HTM-GL cannot take it out — so it pays the timer-quantum cost. This is
// precisely the disadvantage Part-HTM's software framework removes.
func (x *tx) NonTxWork(c int64) {
	if x.ht != nil {
		x.ht.Work(c)
	}
	tm.Spin(c)
}

// Atomic implements tm.System. The exec kernel drives the paper's schedule
// — Retries gated hardware attempts, then the global lock — and records all
// commit/abort outcomes.
func (s *System) Atomic(thread int, body func(tm.Tx)) {
	t := s.threads[thread]
	t.body = body
	s.run.Run(thread, &t.xtxn)
	t.body = nil
}

// lockAttempt runs the body under the global lock.
func (s *System) lockAttempt(t *thread) {
	for !s.m.CAS(s.glock, 0, 1) {
		runtime.Gosched()
	}
	start := time.Now()
	t.x.ht = nil
	t.body(&t.x)
	s.m.Store(s.glock, 0)
	s.stats.Shard(t.x.thread).AddSerial(time.Since(start))
}

// hwAttempt runs the body as one hardware transaction subscribed to the
// global lock.
func (s *System) hwAttempt(t *thread) htm.Result {
	return s.eng.Execute(t.x.thread, func(ht *htm.Txn) {
		t.x.ht = ht
		if ht.Read(s.glock) != 0 {
			ht.Abort(codeGLock)
		}
		t.body(&t.x)
	})
}
