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
// NOrec is domain-oblivious: one global sequence lock covers the whole
// address space, so every address takes domain-0 semantics (the
// single-domain topology of internal/domain); sharded memory domains are a
// Part-HTM (internal/core) mechanism.
package norec

import (
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/tm"
)

// retryPanic unwinds an aborted software attempt back to the retry loop.
type retryPanic struct{}

// System is a NOrec instance.
type System struct {
	m       *mem.Memory
	seq     mem.Addr // global sequence lock (odd = write-back in progress)
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

// New creates a NOrec system on m for up to maxThreads threads.
func New(m *mem.Memory, maxThreads int) *System {
	s := &System{
		m:       m,
		seq:     m.AllocLines(1),
		threads: make([]*thread, maxThreads),
	}
	// A pure STM is an unbounded mid level to the exec kernel: no fast
	// level, no gates, no slow path to fall to.
	s.run = exec.New(exec.Policy{}, &s.stats, nil)
	for i := range s.threads {
		t := &thread{id: i, redo: make(map[mem.Addr]uint64, 16)}
		t.sh = s.stats.Shard(i)
		x := &tx{s: s, t: t}
		t.xtxn = exec.Txn{
			Mid:  func() bool { return s.attempt(t, x, t.body) },
			Slow: func() { panic("norec: unbounded software loop cannot fall through") },
		}
		s.threads[i] = t
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "NOrec" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor, profiler, and degradation state (see
// exec.Runner).
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

func (t *thread) reset() {
	t.readLog = t.readLog[:0]
	for _, a := range t.redoOrder {
		delete(t.redo, a)
	}
	t.redoOrder = t.redoOrder[:0]
}

// begin waits for an even (unlocked) sequence number and snapshots it.
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

// revalidate waits for an even sequence number, re-reads every logged
// location, and compares values. On a mismatch the transaction aborts; on
// success the snapshot moves forward to the observed sequence number.
func (s *System) revalidate(t *thread) {
	for {
		ts := s.m.Load(s.seq)
		if ts&1 != 0 {
			runtime.Gosched()
			continue
		}
		ok := true
		for _, r := range t.readLog {
			if s.m.Load(r.addr) != r.val {
				ok = false
				break
			}
		}
		if !ok {
			panic(retryPanic{})
		}
		if s.m.Load(s.seq) == ts {
			t.ts = ts
			return
		}
	}
}

// read performs a NOrec transactional read.
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

// write buffers a NOrec transactional write.
func (t *thread) write(a mem.Addr, v uint64) {
	if _, dup := t.redo[a]; !dup {
		t.redoOrder = append(t.redoOrder, a)
	}
	t.redo[a] = v
}

// commit acquires the sequence lock, writes back, and releases.
func (s *System) commit(t *thread) {
	if len(t.redoOrder) == 0 {
		return // read-only: every read was validated against its snapshot
	}
	for !s.m.CAS(s.seq, t.ts, t.ts+1) {
		s.revalidate(t)
	}
	start := time.Now()
	for _, a := range t.redoOrder {
		s.m.Store(a, t.redo[a])
	}
	s.m.Store(s.seq, t.ts+2)
	t.sh.AddSerial(time.Since(start))
}

// tx adapts a thread to tm.Tx.
type tx struct {
	s *System
	t *thread
}

var _ tm.Tx = (*tx)(nil)

func (x *tx) Thread() int { return x.t.id }
func (x *tx) Pause()      {}
func (x *tx) Read(a mem.Addr) uint64 {
	tm.Spin(tm.SWReadBarrier) // modelled barrier cost (see tm package docs)
	return x.s.read(x.t, a)
}

func (x *tx) Write(a mem.Addr, v uint64) {
	tm.Spin(tm.SWWriteBarrier)
	x.t.write(a, v)
}

// WriteLocal stores thread-private data directly: no redo buffering, no
// validation. A later abort leaves the scratch value behind, which is fine
// for private data.
func (x *tx) WriteLocal(a mem.Addr, v uint64) { x.s.m.Store(a, v) }
func (x *tx) Work(c int64)                    { tm.Spin(c) }
func (x *tx) NonTxWork(c int64)               { tm.Spin(c) }

// Atomic implements tm.System: the exec kernel retries the software
// attempt until it commits and records commit/abort outcomes.
func (s *System) Atomic(thread int, body func(tm.Tx)) {
	t := s.threads[thread]
	t.body = body
	s.run.Run(thread, &t.xtxn)
	t.body = nil
}

func (s *System) attempt(t *thread, x *tx, body func(tm.Tx)) (ok bool) {
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
