package htm

import (
	"sync"
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
)

func TestReadLineRoundTrip(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	for i := 0; i < mem.LineWords; i++ {
		m.Store(base+mem.Addr(i), uint64(100+i))
	}
	res := e.Execute(0, func(tx *Txn) {
		var out [mem.LineWords]uint64
		tx.ReadLine(base, &out)
		for i, v := range out {
			if v != uint64(100+i) {
				t.Errorf("word %d = %d", i, v)
			}
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
}

// TestReadLineSeesOwnWordWrites: words the transaction wrote word-wise are
// overlaid on the line; a line it has not written is read without a look
// at the write buffer.
func TestReadLineSeesOwnWordWrites(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(2)
	other := base + mem.LineWords
	for i := 0; i < 2*mem.LineWords; i++ {
		m.Store(base+mem.Addr(i), uint64(100+i))
	}
	tx := e.Begin(0)
	tx.Write(base+3, 7)
	tx.Overwrite(base+5, 9)
	var out [mem.LineWords]uint64
	tx.ReadLine(base, &out)
	for i, v := range out {
		want := uint64(100 + i)
		switch i {
		case 3:
			want = 7
		case 5:
			want = 9
		}
		if v != want {
			t.Errorf("written line, word %d = %d, want %d", i, v, want)
		}
	}
	idx := tx.wbIdx
	tx.wbIdx = nil // any probe of the buffer would now panic
	tx.ReadLine(other, &out)
	tx.wbIdx = idx
	for i, v := range out {
		if v != uint64(100+mem.LineWords+i) {
			t.Errorf("unwritten line, word %d = %d", i, v)
		}
	}
	tx.Commit()
}

func TestReadLineUnalignedPanics(t *testing.T) {
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Execute(0, func(tx *Txn) {
		var out [mem.LineWords]uint64
		tx.ReadLine(base+1, &out)
	})
}

func TestWriteLinePublishesAtomically(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	var vals [mem.LineWords]uint64
	for i := range vals {
		vals[i] = uint64(i) * 7
	}
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLine(base, &vals)
		// Read-back through the line buffer.
		if got := tx.Read(base + 3); got != 21 {
			t.Errorf("read-own-line-write = %d, want 21", got)
		}
		var out [mem.LineWords]uint64
		tx.ReadLine(base, &out)
		if out != vals {
			t.Error("ReadLine after WriteLine mismatch")
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	for i := range vals {
		if got := m.Load(base + mem.Addr(i)); got != vals[i] {
			t.Fatalf("word %d = %d after commit", i, got)
		}
	}
}

func TestWriteLineDiscardedOnAbort(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	m.Store(base, 5)
	var vals [mem.LineWords]uint64
	vals[0] = 99
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLine(base, &vals)
		tx.Abort(1)
	})
	if res.Committed {
		t.Fatal("expected abort")
	}
	if got := m.Load(base); got != 5 {
		t.Fatalf("aborted WriteLine leaked: %d", got)
	}
}

// TestWriteOnWriteLinePanics: the "not both ways" rule is checked on Write as
// it is on Overwrite, now that a framework writes signature lines whole.
func TestWriteOnWriteLinePanics(t *testing.T) {
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Write on a WriteLine line did not panic")
		}
	}()
	e.Execute(0, func(tx *Txn) {
		var vals [mem.LineWords]uint64
		tx.WriteLine(base, &vals)
		tx.Write(base+2, 1)
	})
}

// TestWriteLineBuffer: the line buffer keeps one entry per line however often
// the line is rewritten, an aborted transaction's lines do not reach the next
// one on the slot, several lines commit each with its last value, and a
// transaction that writes lines allocates nothing once the buffer has grown.
func TestWriteLineBuffer(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(5)
	line := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	fill := func(v uint64) *[mem.LineWords]uint64 {
		var vals [mem.LineWords]uint64
		for i := range vals {
			vals[i] = v + uint64(i)
		}
		return &vals
	}
	e.Execute(0, func(tx *Txn) {
		tx.WriteLine(line(4), fill(900))
		tx.Abort(1)
	})
	res := e.Execute(0, func(tx *Txn) {
		if got := tx.Read(line(4) + 1); got != 0 {
			t.Errorf("recycled transaction sees an aborted line write: %d", got)
		}
		for round := uint64(0); round < 3; round++ {
			for i := 0; i < 4; i++ {
				tx.WriteLine(line(i), fill(100*round+10*uint64(i)))
			}
		}
		if n := len(tx.lineBuf); n != 4 {
			t.Errorf("%d buffered lines after rewriting 4, want 4", n)
		}
		if got := tx.Read(line(2) + 3); got != 223 {
			t.Errorf("read of a rewritten line = %d, want 223", got)
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < mem.LineWords; j++ {
			if got, want := m.Load(line(i)+mem.Addr(j)), 200+10*uint64(i)+uint64(j); got != want {
				t.Fatalf("line %d word %d = %d after commit, want %d", i, j, got, want)
			}
		}
	}
	if got := m.Load(line(4)); got != 0 {
		t.Fatalf("aborted WriteLine reached memory: %d", got)
	}
	run := func() {
		tx := e.Begin(0)
		for i := 0; i < 5; i++ {
			tx.WriteLine(line(i), fill(1))
		}
		tx.Commit()
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("%v allocations per five-line transaction, want 0", n)
	}
}

func TestWriteLineConflictsLikeWrite(t *testing.T) {
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	r1, r2 := runConflict(e,
		func(tx *Txn, sync1 chan struct{}) {
			tx.Read(base)
			close(sync1)
			for !tx.Doomed() {
			}
			tx.Work(1)
		},
		func(tx *Txn, sync1 chan struct{}) {
			<-sync1
			var vals [mem.LineWords]uint64
			tx.WriteLine(base, &vals)
		},
	)
	if r1.Committed || !r2.Committed {
		t.Fatalf("WriteLine did not doom the reader: %+v %+v", r1, r2)
	}
}

func TestWriteLineCountsCapacity(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteLines = 2
		c.WriteWays = 64
		c.WriteSets = 1
	})
	base := e.Memory().AllocLines(4)
	var vals [mem.LineWords]uint64
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 3; i++ {
			tx.WriteLine(base+mem.Addr(i*mem.LineWords), &vals)
		}
	})
	if res.Committed || res.Reason != abort.Capacity {
		t.Fatalf("want capacity abort, got %+v", res)
	}
}

func TestWriteLocalVisibleAndCheap(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLocal(a, 42)
		// Local writes are applied in place immediately.
		if got := m.Load(a); got != 42 {
			t.Errorf("local write not in place: %d", got)
		}
		if got := tx.Read(a); got != 42 {
			t.Errorf("transactional read of local write = %d", got)
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
}

func TestWriteLocalCountsCapacity(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteLines = 2
		c.WriteWays = 64
		c.WriteSets = 1
	})
	base := e.Memory().AllocLines(4)
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 3; i++ {
			tx.WriteLocal(base+mem.Addr(i*mem.LineWords), 1)
		}
	})
	if res.Committed || res.Reason != abort.Capacity {
		t.Fatalf("want capacity abort, got %+v", res)
	}
}

func TestWriteLocalSurvivesAbortByContract(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLocal(a, 7)
		tx.Abort(1)
	})
	if res.Committed {
		t.Fatal("expected abort")
	}
	// The contract: post-abort value of a local write is unspecified; this
	// implementation stores in place, so the value persists.
	if got := m.Load(a); got != 7 {
		t.Fatalf("local write = %d", got)
	}
}

func TestTxnRecyclingIsClean(t *testing.T) {
	e := newTestEngine(1<<14, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	// First transaction writes a and aborts; second must not inherit any
	// buffered state.
	e.Execute(0, func(tx *Txn) {
		tx.Write(a, 111)
		tx.WriteLocal(b, 5)
		tx.Abort(1)
	})
	res := e.Execute(0, func(tx *Txn) {
		if got := tx.Read(a); got != 0 {
			t.Errorf("recycled txn sees stale buffered write: %d", got)
		}
		tx.Write(a, 1)
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	if got := m.Load(a); got != 1 {
		t.Fatalf("a = %d", got)
	}
}

func TestBeginCommitHandleAPI(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("unexpected abort or panic: %v", r)
			}
		}()
		tx := e.Begin(0)
		tx.Write(a, 9)
		tx.Commit()
	}()
	if got := m.Load(a); got != 9 {
		t.Fatalf("a = %d", got)
	}
	// Cancel discards.
	tx := e.Begin(0)
	tx.Write(a, 100)
	tx.Cancel()
	if got := m.Load(a); got != 9 {
		t.Fatalf("a = %d after Cancel", got)
	}
	// The slot is reusable after Cancel.
	res := e.Execute(0, func(tx *Txn) { tx.Write(a, 10) })
	if !res.Committed || m.Load(a) != 10 {
		t.Fatal("slot unusable after Cancel")
	}
}

func TestAsAbortDoesNotReraise(t *testing.T) {
	if _, ok := AsAbort("not an abort"); ok {
		t.Fatal("AsAbort accepted a non-abort")
	}
	if _, ok := AsAbort(nil); ok {
		t.Fatal("AsAbort accepted nil")
	}
}

// TestConcurrentRecyclingStress: slots recycle their transaction objects
// under contention, and every way a transaction can end — commit (which
// releases write monitors line by line), abort, Cancel — leaves no monitor
// entry naming the finished slot.
func TestConcurrentRecyclingStress(t *testing.T) {
	e := newTestEngine(1<<14, nil)
	m := e.Memory()
	a := m.AllocLines(2)
	b := a + mem.LineWords
	released := func(slot int) {
		for _, l := range []mem.Line{mem.LineOf(a), mem.LineOf(b)} {
			en := entry(m.Lock(l))
			m.Unlock(l, uint32(en))
			if en.writer() == entry(slot+1) || en.readers()&(1<<uint(slot)) != 0 {
				t.Errorf("slot %d finished but line %d still holds %#x", slot, l, en)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				for {
					res := e.Execute(slot, func(tx *Txn) {
						tx.Write(a, tx.Read(a)+1)
						tx.Add(b, 1)
					})
					released(slot)
					if res.Committed {
						break
					}
				}
				if i%8 == 0 {
					func() {
						tx := e.Begin(slot)
						defer func() {
							if r := recover(); r != nil {
								if _, ok := AsAbort(r); !ok {
									panic(r)
								}
							}
							released(slot)
						}()
						tx.Overwrite(a, tx.Read(b))
						tx.Cancel()
					}()
				}
			}
		}(w)
	}
	wg.Wait()
	if ga, gb := m.Load(a), m.Load(b); ga != 2400 || gb != 2400 {
		t.Fatalf("counters = %d %d, want 2400 2400", ga, gb)
	}
}
