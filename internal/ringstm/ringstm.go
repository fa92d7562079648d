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
// RingSTM here keeps the single global ring of the original paper: every
// address takes domain-0 semantics (the single-domain topology of
// internal/domain). Part-HTM (internal/core) is the system that shards the
// ring per memory domain; its N=1 configuration is this global-ring
// scheme.
package ringstm

import (
	"time"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/tm"
)

type retryPanic struct{}

// System is a RingSTM instance.
type System struct {
	m       *mem.Memory
	r       *ring.Ring
	threads []*thread
	stats   tm.Stats
	run     *exec.Runner
}

type thread struct {
	id        int
	ts        uint64
	readSig   sig.Signature
	writeSig  sig.Signature
	redo      map[mem.Addr]uint64
	redoOrder []mem.Addr
	sh        *tm.Shard
	xtxn      exec.Txn
	body      func(tm.Tx)
}

// New creates a RingSTM system on m with the given ring size (the paper
// uses the same ring configuration as Part-HTM).
func New(m *mem.Memory, maxThreads, ringSize int) *System {
	s := &System{
		m:       m,
		r:       ring.New(m, ringSize),
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
			Slow: func() { panic("ringstm: unbounded software loop cannot fall through") },
		}
		s.threads[i] = t
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "RingSTM" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor, profiler, and degradation state (see
// exec.Runner).
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

func (t *thread) reset() {
	t.readSig.Clear()
	t.writeSig.Clear()
	for _, a := range t.redoOrder {
		delete(t.redo, a)
	}
	t.redoOrder = t.redoOrder[:0]
}

// begin snapshots the ring timestamp, waiting for that entry's write-back
// to complete so every committed value at or before the snapshot is
// visible.
func (s *System) begin(t *thread) {
	ts := s.r.Timestamp()
	s.r.WaitDone(ts)
	t.ts = ts
}

// advance validates the read signature against entries committed in
// (t.ts, now] and moves the snapshot forward.
func (s *System) advance(t *thread, now uint64) {
	if !s.r.Validate(&t.readSig, t.ts, now) {
		panic(retryPanic{})
	}
	s.r.WaitDone(now)
	t.ts = now
}

func (s *System) read(t *thread, a mem.Addr) uint64 {
	if v, ok := t.redo[a]; ok {
		return v
	}
	t.readSig.Add(uint32(a))
	v := s.m.Load(a)
	if now := s.r.Timestamp(); now != t.ts {
		// Something committed since the snapshot: the value just read is
		// only safe if no new entry wrote anything we have read.
		s.advance(t, now)
		v = s.m.Load(a)
	}
	return v
}

func (t *thread) write(a mem.Addr, v uint64) {
	t.writeSig.Add(uint32(a))
	if _, dup := t.redo[a]; !dup {
		t.redoOrder = append(t.redoOrder, a)
	}
	t.redo[a] = v
}

func (s *System) commit(t *thread) {
	if len(t.redoOrder) == 0 {
		return
	}
	tsAddr := s.r.TimestampAddr()
	for {
		now := s.m.Load(tsAddr)
		if now != t.ts {
			s.advance(t, now)
		}
		if s.m.CAS(tsAddr, now, now+1) {
			t.ts = now + 1
			break
		}
	}
	start := time.Now()
	s.r.PublishSW(t.ts, &t.writeSig)
	for _, a := range t.redoOrder {
		s.m.Store(a, t.redo[a])
	}
	s.r.SetDone(t.ts)
	t.sh.AddSerial(time.Since(start))
}

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

// WriteLocal stores thread-private data directly, outside the redo log and
// write signature.
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
