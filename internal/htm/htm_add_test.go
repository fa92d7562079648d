package htm

import (
	"runtime"
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
)

// TestAddIsReadThenWrite: Add returns and buffers what Read followed by
// Write would, at their cost in cycles, and its line joins the write set
// only.
func TestAddIsReadThenWrite(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(3)
	b, c := a+mem.LineWords, a+2*mem.LineWords
	m.Store(a, 10)
	m.Store(c, 40)

	tx := e.Begin(0)
	tx.Read(b)
	c0, r0, w0 := tx.Footprint()
	if got := tx.Add(a, 5); got != 15 {
		t.Fatalf("Add of an unbuffered word = %d, want memory's 10 + 5", got)
	}
	cfg := e.Config()
	if c1, r1, w1 := tx.Footprint(); c1-c0 != cfg.ReadCost+cfg.WriteCost || r1 != r0 || w1 != w0+1 {
		t.Fatalf("one Add moved the footprint (%d, %d, %d) -> (%d, %d, %d), want +ReadCost+WriteCost cycles, the same read lines, one more write line",
			c0, r0, w0, c1, r1, w1)
	}
	if got := tx.Add(a, 1); got != 16 {
		t.Fatalf("Add of a buffered word = %d, want 16", got)
	}
	tx.Write(c, 41)
	if got := tx.Add(c, 2); got != 43 {
		t.Fatalf("Add after Write = %d, want the buffered 41 + 2", got)
	}
	if got := tx.Add(c+1, ^uint64(0)); got != ^uint64(0) {
		t.Fatalf("Add of -1 to a zero word on a line already held = %d, want the wrapped -1", got)
	}
	if got := tx.Read(a); got != 16 {
		t.Fatalf("Read after Add = %d, want 16", got)
	}
	if len(tx.wb) != 3 {
		t.Fatalf("%d buffered words, want 3: a rewritten word stays one entry", len(tx.wb))
	}
	if _, r, w := tx.Footprint(); r != 1 || w != 2 {
		t.Fatalf("%d read lines, %d write lines; want 1 and 2", r, w)
	}
	tx.Commit()
	if m.Load(a) != 16 || m.Load(c) != 43 || m.Load(c+1) != ^uint64(0) {
		t.Fatalf("committed %d %d %d, want 16 43 -1", m.Load(a), m.Load(c), int64(m.Load(c+1)))
	}
}

// TestAddConflictsLikeWrite: the write monitor Add takes dooms a rival that
// read the line, and a non-transactional load of the line dooms the adder.
func TestAddConflictsLikeWrite(t *testing.T) {
	t.Run("add dooms reader", func(t *testing.T) {
		e := newTestEngine(1024, nil)
		a := e.Memory().AllocLines(1)
		reader := e.Begin(1)
		reader.Read(a + 1)
		adder := e.Begin(0)
		adder.Add(a, 1)
		if !reader.Doomed() {
			t.Fatal("a reader of the line survived an Add to it")
		}
		reader.Cancel()
		adder.Commit()
		if got := e.Memory().Load(a); got != 1 {
			t.Fatalf("a = %d after the add committed, want 1", got)
		}
	})

	t.Run("non-transactional load dooms adder", func(t *testing.T) {
		e := newTestEngine(1024, nil)
		m := e.Memory()
		a := m.AllocLines(1)
		tx := e.Begin(0)
		tx.Add(a, 1)
		if got := m.Load(a + 1); got != 0 {
			t.Fatalf("load of the adder's line = %d, want 0", got)
		}
		if !tx.Doomed() {
			t.Fatal("the adder survived a non-transactional load of its line")
		}
		defer func() {
			if res, ok := AsAbort(recover()); !ok || res.Reason != abort.Conflict {
				t.Fatalf("want Conflict abort, got %+v (abort=%v)", res, ok)
			}
			if got := m.Load(a); got != 0 {
				t.Fatalf("a = %d after the doomed add, want 0", got)
			}
		}()
		tx.Commit()
	})
}

// TestAddLoadsUnderTheWriteMonitor: Add loads the word only once its write
// monitor is held. The test holds the line's lock until the adder waits for
// it inside Add, then stores the word as a locked store would and lets the
// adder in: the sum must include that store, or a concurrent increment is
// lost.
func TestAddLoadsUnderTheWriteMonitor(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	l := mem.LineOf(a)
	tx := e.Begin(0)
	held := m.Lock(l)
	got := make(chan uint64)
	go func() { got <- tx.Add(a, 1) }()
	for !lockWaiterIn("htm.(*Txn).Add(") {
		runtime.Gosched()
	}
	m.RawStore(a, 41)
	m.Unlock(l, held)
	if v := <-got; v != 42 {
		t.Fatalf("Add(1) over a word stored as 41 before the monitor was taken = %d, want 42", v)
	}
	tx.Commit()
	if v := m.Load(a); v != 42 {
		t.Fatalf("committed %d, want 42", v)
	}
}

// TestCommitReleasesReadMonitorWithWriteMonitor: the CAS that releases a
// written line's write monitor clears the committer's reader bit on it too,
// while the commit is still storing other lines; a line that was only read
// is released afterwards, as before.
func TestCommitReleasesReadMonitorWithWriteMonitor(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(3)
	b, c := a+mem.LineWords, a+2*mem.LineWords
	la, lb, lc := mem.LineOf(a), mem.LineOf(b), mem.LineOf(c)

	tx := e.Begin(0)
	tx.Write(c, 3) // the oldest entry: stored last
	tx.Write(a, tx.Read(a)+1)
	var line [mem.LineWords]uint64
	tx.ReadLine(b, &line)
	if en := e.entryOf(la); en.readers() != 1 || en.writer() != 1 {
		t.Fatalf("a's line before the commit = %#x, want reader bit 0 and writer slot 0", en)
	}

	held := m.Lock(lc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx.Commit()
	}()
	for !lockWaiterIn("htm.(*Txn).Commit(") {
		runtime.Gosched()
	}
	if en := e.entryOf(la); en != 0 {
		t.Errorf("a's line, read and written, holds %#x once released mid-commit, want 0", en)
	}
	if en := e.entryOf(lb); en.readers() != 1 {
		t.Errorf("b's line, only read, holds %#x mid-commit, want its reader bit", en)
	}
	m.Unlock(lc, held)
	<-done
	for _, l := range []mem.Line{la, lb, lc} {
		if en := e.entryOf(l); en != 0 {
			t.Errorf("line %d still monitored after the commit: %#x", l, en)
		}
	}
	if m.Load(a) != 1 || m.Load(c) != 3 {
		t.Fatalf("committed a = %d, c = %d; want 1 and 3", m.Load(a), m.Load(c))
	}
}
