// Package stm is the scaffold the software transactional memories share:
// the retry sentinel, the insertion-ordered redo log, the tm.Tx view that
// charges the modelled software-barrier costs, the attempt that turns the
// sentinel into a retry, and the pure-STM tm.System shell over the exec
// kernel. A protocol (NOrec, RingSTM) supplies only begin, read, write and
// commit; a hybrid (NOrecRH) reuses the view and the attempt under its own
// shell.
package stm

import (
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Protocol is one thread's software transaction. Begin also discards
// whatever a previous attempt left behind; Read, Write and Commit call
// Retry when validation fails.
type Protocol interface {
	Begin()
	Read(a mem.Addr) uint64
	Write(a mem.Addr, v uint64)
	Commit()
}

type retry struct{}

// Retry unwinds an invalidated software attempt back to Tx.Attempt.
func Retry() { panic(retry{}) }

// Entry is an (address, value) pair: a buffered write, or a logged read.
type Entry struct {
	Addr mem.Addr
	Val  uint64
}

// Redo is a redo log in first-write order; rewriting an address updates its
// entry in place. The zero value is ready to use.
type Redo struct {
	entries []Entry
	index   map[mem.Addr]int
}

// Get returns the buffered value for a, if any.
func (r *Redo) Get(a mem.Addr) (uint64, bool) {
	if i, ok := r.index[a]; ok {
		return r.entries[i].Val, true
	}
	return 0, false
}

// Put buffers the write of v to a.
func (r *Redo) Put(a mem.Addr, v uint64) {
	if i, ok := r.index[a]; ok {
		r.entries[i].Val = v
		return
	}
	if r.index == nil {
		r.index = make(map[mem.Addr]int, 16)
	}
	r.index[a] = len(r.entries)
	r.entries = append(r.entries, Entry{a, v})
}

// Entries returns the buffered writes in first-write order, valid until the
// next Put or Reset.
func (r *Redo) Entries() []Entry { return r.entries }

// Reset empties the log, keeping its storage.
func (r *Redo) Reset() {
	for _, e := range r.entries {
		delete(r.index, e.Addr)
	}
	r.entries = r.entries[:0]
}

// Tx is the tm.Tx view of one thread's Protocol.
type Tx struct {
	id int
	m  *mem.Memory
	p  Protocol
}

var _ tm.Tx = (*Tx)(nil)

// NewTx wraps thread id's protocol instance.
func NewTx(id int, m *mem.Memory, p Protocol) *Tx { return &Tx{id: id, m: m, p: p} }

func (x *Tx) Thread() int { return x.id }
func (x *Tx) Pause()      {}
func (x *Tx) Read(a mem.Addr) uint64 {
	tm.Spin(tm.SWReadBarrier) // modelled barrier cost (see tm package docs)
	return x.p.Read(a)
}

func (x *Tx) Write(a mem.Addr, v uint64) {
	tm.Spin(tm.SWWriteBarrier)
	x.p.Write(a, v)
}

// WriteLocal stores thread-private data directly: no redo buffering, no
// validation. A later abort leaves the scratch value behind, which is fine
// for private data.
func (x *Tx) WriteLocal(a mem.Addr, v uint64) { x.m.Store(a, v) }
func (x *Tx) Work(c int64)                    { tm.Spin(c) }
func (x *Tx) NonTxWork(c int64)               { tm.Spin(c) }

// Attempt runs body once as a software transaction and reports whether it
// committed; false means the protocol called Retry. Any other panic is the
// workload's and propagates.
func (x *Tx) Attempt(body func(tm.Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isRetry := r.(retry); !isRetry {
				panic(r)
			}
		}
	}()
	x.p.Begin()
	body(x)
	x.p.Commit()
	return true
}

// System is the tm.System shell of a pure STM. To the exec kernel that is
// an unbounded mid level: no fast level, no gates, no slow path to fall to.
type System struct {
	name    string
	m       *mem.Memory
	stats   tm.Stats
	run     *exec.Runner
	threads []*thread
}

type thread struct {
	body func(tm.Tx)
	xtxn exec.Txn
}

// New creates the shell for maxThreads threads on m; proto builds one
// thread's protocol instance, which records into sh what the kernel does not.
func New(name string, m *mem.Memory, maxThreads int, proto func(sh *tm.Shard) Protocol) *System {
	s := &System{name: name, m: m, threads: make([]*thread, maxThreads)}
	s.run = exec.New(exec.Policy{}, &s.stats, nil)
	for i := range s.threads {
		t := &thread{}
		s.threads[i] = t
		x := NewTx(i, m, proto(s.stats.Shard(i)))
		// No Slow: the unbounded Mid loop is the guaranteed level, and the
		// kernel takes a nil Slow to mean there is nothing to serialize onto.
		t.xtxn = exec.Txn{Mid: func() bool { return x.Attempt(t.body) }}
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return s.name }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Kernel returns the system's execution kernel, the one attach-and-inspect
// seam for trace, governor and profiler (see exec.Runner).
func (s *System) Kernel() *exec.Runner { return s.run }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

// Atomic implements tm.System: the exec kernel retries the software
// attempt until it commits and records commit/abort outcomes.
func (s *System) Atomic(thread int, body func(tm.Tx)) {
	t := s.threads[thread]
	t.body = body
	s.run.Run(thread, &t.xtxn)
	t.body = nil
}
