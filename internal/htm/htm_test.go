package htm

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
)

// newTestEngine returns an engine with deterministic, generous limits
// unless overridden.
func newTestEngine(words int, mut func(*Config)) *Engine {
	m := mem.New(words)
	cfg := DefaultConfig()
	cfg.Quantum = 0 // no timer aborts unless a test asks for them
	if mut != nil {
		mut(&cfg)
	}
	return New(m, cfg)
}

func TestCommitPublishesWrites(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(2)
	res := e.Execute(0, func(tx *Txn) {
		tx.Write(a, 11)
		tx.Write(a+1, 22)
	})
	if !res.Committed {
		t.Fatalf("commit failed: %+v", res)
	}
	if m.Load(a) != 11 || m.Load(a+1) != 22 {
		t.Fatal("committed writes not visible")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	m.Store(a, 5)
	res := e.Execute(0, func(tx *Txn) {
		tx.Write(a, 99)
		tx.Abort(7)
	})
	if res.Committed || res.Reason != abort.Explicit || res.Code != 7 {
		t.Fatalf("want explicit abort code 7, got %+v", res)
	}
	if m.Load(a) != 5 {
		t.Fatal("aborted write leaked to memory")
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().Alloc(1)
	e.Memory().Store(a, 1)
	res := e.Execute(0, func(tx *Txn) {
		tx.Write(a, 2)
		if got := tx.Read(a); got != 2 {
			t.Errorf("Read after Write = %d, want 2", got)
		}
	})
	if !res.Committed {
		t.Fatalf("unexpected abort: %+v", res)
	}
}

func TestWriteCapacityTotal(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteLines = 4
		c.WriteWays = 64 // don't trip associativity first
		c.WriteSets = 1
	})
	m := e.Memory()
	base := m.AllocLines(8)
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 5; i++ {
			tx.Write(base+mem.Addr(i*mem.LineWords), 1)
		}
	})
	if res.Committed || res.Reason != abort.Capacity {
		t.Fatalf("want capacity abort, got %+v", res)
	}
	// Exactly at the limit it must commit.
	res = e.Execute(0, func(tx *Txn) {
		for i := 0; i < 4; i++ {
			tx.Write(base+mem.Addr(i*mem.LineWords), 1)
		}
	})
	if !res.Committed {
		t.Fatalf("transaction at capacity limit aborted: %+v", res)
	}
}

func TestWriteCapacityAssociativity(t *testing.T) {
	// 2 ways, 4 sets: writing 3 lines that map to the same set must abort
	// even though the total budget (8) is not exceeded.
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteSets = 4
		c.WriteWays = 2
		c.WriteLines = 8
	})
	m := e.Memory()
	base := m.AllocLines(16)
	baseLine := uint32(mem.LineOf(base))
	// Align so that line stride 4 stays in one set.
	for uint32(baseLine)%4 != 0 {
		base += mem.LineWords
		baseLine = uint32(mem.LineOf(base))
	}
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 3; i++ {
			tx.Write(base+mem.Addr(i*4*mem.LineWords), 1)
		}
	})
	if res.Committed || res.Reason != abort.Capacity {
		t.Fatalf("want associativity capacity abort, got %+v", res)
	}
}

func TestReadCapacityHard(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.ReadLinesHard = 8
		c.ReadLinesSoft = 4
		c.ReadEvictProb = 0
	})
	m := e.Memory()
	base := m.AllocLines(16)
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 9; i++ {
			tx.Read(base + mem.Addr(i*mem.LineWords))
		}
	})
	if res.Committed || res.Reason != abort.Capacity {
		t.Fatalf("want hard read-capacity abort, got %+v", res)
	}
}

func TestReadCapacitySoftNeedsPressure(t *testing.T) {
	// With only one running transaction there is no shared-cache pressure:
	// reads beyond the soft budget must survive.
	e := newTestEngine(1<<16, func(c *Config) {
		c.ReadLinesSoft = 2
		c.ReadLinesHard = 1 << 20
		c.ReadEvictProb = 1.0 // would always abort under pressure
		c.ReadFreeThreads = 1
	})
	m := e.Memory()
	base := m.AllocLines(16)
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 10; i++ {
			tx.Read(base + mem.Addr(i*mem.LineWords))
		}
	})
	if !res.Committed {
		t.Fatalf("soft capacity aborted without concurrency pressure: %+v", res)
	}
}

func TestTimerQuantumAborts(t *testing.T) {
	e := newTestEngine(1024, func(c *Config) { c.Quantum = 100 })
	res := e.Execute(0, func(tx *Txn) {
		tx.Work(101)
	})
	if res.Committed || res.Reason != abort.Other {
		t.Fatalf("want timer (Other) abort, got %+v", res)
	}
	res = e.Execute(0, func(tx *Txn) {
		tx.Work(99)
	})
	if !res.Committed {
		t.Fatalf("short transaction aborted: %+v", res)
	}
}

func TestTimerCountsMemoryOps(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.Quantum = 10
		c.ReadCost = 1
	})
	base := e.Memory().AllocLines(4)
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 11; i++ {
			tx.Read(base)
		}
	})
	if res.Committed || res.Reason != abort.Other {
		t.Fatalf("want Other abort from accumulated read cost, got %+v", res)
	}
}

// runConflict executes two transaction bodies on two goroutines with a
// rendezvous between their phases, returning both results.
func runConflict(e *Engine, first, second func(*Txn, chan struct{})) (r1, r2 Result) {
	var wg sync.WaitGroup
	sync1 := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		r1 = e.Execute(0, func(tx *Txn) { first(tx, sync1) })
	}()
	go func() {
		defer wg.Done()
		r2 = e.Execute(1, func(tx *Txn) { second(tx, sync1) })
	}()
	wg.Wait()
	return
}

func TestWriteWriteConflictRequesterWins(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().Alloc(1)
	r1, r2 := runConflict(e,
		func(tx *Txn, sync1 chan struct{}) {
			tx.Write(a, 1)
			close(sync1) // let the second writer in
			// Spin until doomed, then touch the transaction to unwind.
			for !tx.Doomed() {
			}
			tx.Work(1)
		},
		func(tx *Txn, sync1 chan struct{}) {
			<-sync1
			tx.Write(a, 2) // requester wins: dooms the first writer
		},
	)
	if r1.Committed || r1.Reason != abort.Conflict {
		t.Fatalf("first writer should lose with Conflict, got %+v", r1)
	}
	if !r2.Committed {
		t.Fatalf("second writer should win, got %+v", r2)
	}
	if got := e.Memory().Load(a); got != 2 {
		t.Fatalf("memory = %d, want 2", got)
	}
}

func TestWriteDoomsReader(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().Alloc(1)
	r1, r2 := runConflict(e,
		func(tx *Txn, sync1 chan struct{}) {
			tx.Read(a)
			close(sync1)
			for !tx.Doomed() {
			}
			tx.Work(1)
		},
		func(tx *Txn, sync1 chan struct{}) {
			<-sync1
			tx.Write(a, 2)
		},
	)
	if r1.Committed || r1.Reason != abort.Conflict {
		t.Fatalf("reader should be doomed, got %+v", r1)
	}
	if !r2.Committed {
		t.Fatalf("writer should commit, got %+v", r2)
	}
}

func TestReadDoomsWriter(t *testing.T) {
	for _, k := range readKinds {
		t.Run(k.name, func(t *testing.T) {
			e := newTestEngine(1024, nil)
			a := e.Memory().AllocLines(1) + 3
			e.Memory().Store(a, 10)
			r1, r2 := runConflict(e,
				func(tx *Txn, sync1 chan struct{}) {
					tx.Write(a, 99)
					close(sync1)
					for !tx.Doomed() {
					}
					tx.Work(1)
				},
				func(tx *Txn, sync1 chan struct{}) {
					<-sync1
					if got := k.read(tx, a); got != 10 {
						t.Errorf("reader saw uncommitted value %d", got)
					}
				},
			)
			if r1.Committed || r1.Reason != abort.Conflict {
				t.Fatalf("writer should be doomed by conflicting read, got %+v", r1)
			}
			if !r2.Committed {
				t.Fatalf("reader should commit, got %+v", r2)
			}
		})
	}
}

func TestConcurrentReadersDoNotConflict(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().Alloc(1)
	e.Memory().Store(a, 3)
	var wg sync.WaitGroup
	results := make([]Result, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			results[slot] = e.Execute(slot, func(tx *Txn) {
				for j := 0; j < 100; j++ {
					if got := tx.Read(a); got != 3 {
						t.Errorf("read %d, want 3", got)
					}
				}
			})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !r.Committed {
			t.Fatalf("reader %d aborted: %+v", i, r)
		}
	}
}

func TestStrongAtomicityNonTxWriteDoomsReader(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	started := make(chan struct{})
	var res Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = e.Execute(0, func(tx *Txn) {
			tx.Read(a)
			close(started)
			for !tx.Doomed() {
			}
			tx.Work(1)
		})
	}()
	<-started
	m.Store(a, 1) // non-transactional write dooms the reader
	wg.Wait()
	if res.Committed || res.Reason != abort.Conflict {
		t.Fatalf("want conflict abort from strong atomicity, got %+v", res)
	}
}

func TestStrongAtomicityNonTxReadDoomsWriter(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	m.Store(a, 8)
	started := make(chan struct{})
	var res Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = e.Execute(0, func(tx *Txn) {
			tx.Write(a, 9)
			close(started)
			for !tx.Doomed() {
			}
			tx.Work(1)
		})
	}()
	<-started
	if got := m.Load(a); got != 8 {
		t.Fatalf("non-tx read saw buffered value %d", got)
	}
	wg.Wait()
	if res.Committed || res.Reason != abort.Conflict {
		t.Fatalf("want conflict abort, got %+v", res)
	}
}

func TestStrongAtomicityNonTxReadDoesNotDoomReader(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	done := make(chan struct{})
	started := make(chan struct{})
	var res Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = e.Execute(0, func(tx *Txn) {
			tx.Read(a)
			close(started)
			<-done
			tx.Read(a)
		})
	}()
	<-started
	m.Load(a) // non-tx read of a read-monitored line: no conflict
	close(done)
	wg.Wait()
	if !res.Committed {
		t.Fatalf("reader aborted by non-conflicting non-tx read: %+v", res)
	}
}

// TestDoomedReadReturnsNoLaterStore: a transaction doomed while its Read
// waits for the word's line lock must not return a value stored after the
// doom. The test holds x's lock until the reader waits on it inside Read(x),
// dooms the reader by a non-transactional store to y, which it monitors,
// stores x itself and only then lets the reader in.
func TestDoomedReadReturnsNoLaterStore(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	x, y := m.AllocLines(1), m.AllocLines(1)
	leaked := 0
	for i := uint64(1); i <= 1000; i++ {
		held := m.Lock(mem.LineOf(x))
		var got uint64
		returned := false
		done := make(chan Result)
		go func() {
			done <- e.Execute(0, func(tx *Txn) {
				tx.Read(y)
				got = tx.Read(x)
				returned = true
			})
		}()
		waitParkedInRead(t)
		m.Store(y, i)
		m.RawStore(x, i)
		m.Unlock(mem.LineOf(x), held)
		if res := <-done; res.Committed {
			t.Fatal("the doomed reader committed")
		}
		if returned && got == i {
			leaked++
		}
	}
	if leaked > 0 {
		t.Fatalf("a doomed Read returned the word stored after its doom in %d of 1000 runs", leaked)
	}
}

// waitParkedInRead waits until some goroutine is waiting for a line lock
// inside Txn.Read, that is past Read's entry check and before its load.
func waitParkedInRead(t *testing.T) {
	for !lockWaiterIn("htm.(*Txn).Read(") {
		runtime.Gosched()
	}
}

// lockWaiterIn reports whether some goroutine is waiting for a line lock
// with frame on its stack.
func lockWaiterIn(frame string) bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte("mem.(*Memory).Unlocked")) && bytes.Contains(g, []byte(frame)) {
			return true
		}
	}
	return false
}

func TestFalseSharingSameLineConflicts(t *testing.T) {
	// Two different words on the same cache line must conflict: that is the
	// detection granularity the paper's metadata design works around.
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	r1, r2 := runConflict(e,
		func(tx *Txn, sync1 chan struct{}) {
			tx.Write(base, 1)
			close(sync1)
			for !tx.Doomed() {
			}
			tx.Work(1)
		},
		func(tx *Txn, sync1 chan struct{}) {
			<-sync1
			tx.Write(base+1, 2) // different word, same line
		},
	)
	if r1.Committed {
		t.Fatalf("false sharing not detected: %+v %+v", r1, r2)
	}
}

func TestDisjointLinesNoConflict(t *testing.T) {
	e := newTestEngine(4096, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	var wg sync.WaitGroup
	res := make([]Result, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		res[0] = e.Execute(0, func(tx *Txn) {
			for i := 0; i < 200; i++ {
				tx.Write(a, tx.Read(a)+1)
			}
		})
	}()
	go func() {
		defer wg.Done()
		res[1] = e.Execute(1, func(tx *Txn) {
			for i := 0; i < 200; i++ {
				tx.Write(b, tx.Read(b)+1)
			}
		})
	}()
	wg.Wait()
	if !res[0].Committed || !res[1].Committed {
		t.Fatalf("disjoint transactions conflicted: %+v %+v", res[0], res[1])
	}
	if m.Load(a) != 200 || m.Load(b) != 200 {
		t.Fatal("wrong final values")
	}
}

func TestStatsCounting(t *testing.T) {
	e := newTestEngine(1024, func(c *Config) { c.Quantum = 10 })
	a := e.Memory().Alloc(1)
	e.Execute(0, func(tx *Txn) { tx.Write(a, 1) })
	e.Execute(0, func(tx *Txn) { tx.Abort(1) })
	e.Execute(0, func(tx *Txn) { tx.Work(11) })
	s := e.Stats()
	if s.Commits.Load() != 1 || s.AbortsExplicit.Load() != 1 || s.AbortsOther.Load() != 1 {
		t.Fatalf("stats wrong: commits=%d explicit=%d other=%d",
			s.Commits.Load(), s.AbortsExplicit.Load(), s.AbortsOther.Load())
	}
	if s.Aborts() != 2 {
		t.Fatalf("Aborts() = %d, want 2", s.Aborts())
	}
}

// TestStatsListFollowsAbortReason checks the array view recordAbort and
// Snapshot walk: the counter list has one eight-byte field per reason, at
// offset 8*reason, Commits at abort.None and each abort counter at its
// reason, and Snapshot copies every counter.
func TestStatsListFollowsAbortReason(t *testing.T) {
	typ := reflect.TypeOf(Snapshot{})
	if typ.NumField() != int(abort.Count) {
		t.Fatalf("Snapshot has %d fields, want one per reason (%d)", typ.NumField(), abort.Count)
	}
	for r := abort.None; r < abort.Count; r++ {
		want := "Commits"
		if r != abort.None {
			want = "Aborts" + strings.ToUpper(r.String()[:1]) + r.String()[1:]
		}
		if f := typ.Field(int(r)); f.Name != want || f.Offset != 8*uintptr(r) || f.Type.Size() != 8 {
			t.Errorf("field %d is %s at offset %d, want %s at %d", r, f.Name, f.Offset, want, 8*r)
		}
	}
	e := newTestEngine(1024, nil)
	for r := abort.Conflict; r < abort.Count; r++ {
		for i := abort.None; i < r; i++ {
			e.recordAbort(r)
		}
	}
	e.stats.Commits.Add(9)
	snap := e.Stats().Snapshot()
	for r := abort.None; r < abort.Count; r++ {
		want := uint64(r)
		if r == abort.None {
			want = 9
		}
		if got := reflect.ValueOf(snap).Field(int(r)).Uint(); got != want {
			t.Errorf("Snapshot %s = %d, want %d", typ.Field(int(r)).Name, got, want)
		}
	}
	if got := snap.Aborts(); got != 1+2+3+4 {
		t.Errorf("Aborts = %d, want 10", got)
	}
}

func TestNestingPanics(t *testing.T) {
	e := newTestEngine(1024, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Execute on one slot must panic")
		}
	}()
	e.Execute(0, func(tx *Txn) {
		e.Execute(0, func(*Txn) {})
	})
}

// TestUserPanicPropagates: a panic of the body's own propagates out of
// Execute, and the attempt is cancelled exactly as a Begin caller's
// Cancel would: one Explicit abort, nothing written, the slot free.
func TestUserPanicPropagates(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().Alloc(1)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("want user panic to propagate, got %v", r)
			}
		}()
		e.Execute(0, func(tx *Txn) {
			tx.Write(a, 7)
			panic("boom")
		})
	}()
	s := e.Stats()
	if s.AbortsExplicit.Load() != 1 || s.Aborts() != 1 || s.Commits.Load() != 0 {
		t.Fatalf("panicking body: explicit=%d aborts=%d commits=%d, want 1/1/0",
			s.AbortsExplicit.Load(), s.Aborts(), s.Commits.Load())
	}
	if got := e.Memory().Load(a); got != 0 {
		t.Fatalf("cancelled transaction's write reached memory: %d", got)
	}
	if res := e.Execute(0, func(tx *Txn) { tx.Write(a, 1) }); !res.Committed {
		t.Fatalf("slot not reusable after a body panic: %+v", res)
	}
	if got := e.Memory().Load(a); got != 1 {
		t.Fatalf("a = %d, want 1", got)
	}
}

func TestOversubscribedHalvesBudgets(t *testing.T) {
	c := DefaultConfig()
	o := c.Oversubscribed()
	if o.WriteLines != c.WriteLines/2 || o.ReadLinesSoft != c.ReadLinesSoft/2 ||
		o.WriteWays != c.WriteWays/2 || o.ReadLinesHard != c.ReadLinesHard/2 {
		t.Fatalf("oversubscription scaling wrong: %+v", o)
	}
}

// TestCounterStress is the core atomicity invariant: concurrent
// read-modify-write transactions on one counter, retried until they commit,
// must never lose an increment.
func TestCounterStress(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	const workers = 8
	const per = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					res := e.Execute(slot, func(tx *Txn) {
						tx.Write(a, tx.Read(a)+1)
					})
					if res.Committed {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Load(a); got != workers*per {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*per)
	}
}

// TestBankStress checks that concurrent transfers preserve the total
// balance — the snapshot-consistency invariant of the commit protocol.
func TestBankStress(t *testing.T) {
	e := newTestEngine(1<<14, nil)
	m := e.Memory()
	const accounts = 32
	base := m.AllocLines(accounts) // one account per line
	for i := 0; i < accounts; i++ {
		m.Store(base+mem.Addr(i*mem.LineWords), 100)
	}
	const workers = 6
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := uint64(slot*2654435761 + 12345)
			next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
			for i := 0; i < per; i++ {
				from := mem.Addr(next()%accounts) * mem.LineWords
				to := mem.Addr(next()%accounts) * mem.LineWords
				for {
					res := e.Execute(slot, func(tx *Txn) {
						f := tx.Read(base + from)
						tv := tx.Read(base + to)
						if from != to {
							tx.Write(base+from, f-1)
							tx.Write(base+to, tv+1)
						}
					})
					if res.Committed {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < accounts; i++ {
		total += m.Load(base + mem.Addr(i*mem.LineWords))
	}
	if total != accounts*100 {
		t.Fatalf("total balance = %d, want %d", total, accounts*100)
	}
}
