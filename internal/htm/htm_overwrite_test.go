package htm

import (
	"runtime"
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
	"repro/internal/prof"
)

// TestExchangeReturnsWhatReadWould: an exchange of a word, an Overwrite
// with or without a Write before it, leaves Read returning the value the
// last one put there and the commit storing it. Each Overwrite charges what
// a Read + Write pair charges and holds its line in the write set only, and
// HeldWord reads memory's word under it, not the buffered one.
func TestExchangeReturnsWhatReadWould(t *testing.T) {
	e := newTestEngine(1024, nil)
	p := prof.New(prof.Config{Sets: e.Config().WriteSets})
	e.SetProfile(p)
	m := e.Memory()
	a := m.AllocLines(2)
	b := a + mem.LineWords
	m.Store(a, 10)
	m.Store(b+1, 20)

	tx := e.Begin(0)
	tx.Overwrite(a, 11)
	if got, _, _ := tx.Footprint(); got != 3 {
		t.Fatalf("one Overwrite charged %d cycles, want ReadCost+WriteCost = 3", got)
	}
	tx.Overwrite(a, 12)
	tx.Write(b, 21)
	tx.Overwrite(b, 22)
	tx.Overwrite(b+1, 23) // a line already held
	if c, r, w := tx.Footprint(); c != 14 || r != 0 || w != 2 {
		t.Fatalf("four Overwrites and a Write: %d cycles, %d read lines, %d write lines; want 14, 0 and 2", c, r, w)
	}
	for _, w := range []struct {
		a    mem.Addr
		want uint64
	}{{a, 10}, {b, 0}, {b + 1, 20}} {
		if got := tx.HeldWord(w.a); got != w.want {
			t.Fatalf("HeldWord(%d) = %d, want memory's %d", w.a, got, w.want)
		}
	}
	for _, w := range []struct {
		a    mem.Addr
		want uint64
	}{{a, 12}, {b, 22}, {b + 1, 23}} {
		if got := tx.Read(w.a); got != w.want {
			t.Fatalf("Read(%d) after Overwrite = %d, want the buffered %d", w.a, got, w.want)
		}
	}
	tx.Commit()
	if m.Load(a) != 12 || m.Load(b) != 22 || m.Load(b+1) != 23 {
		t.Fatalf("committed %d %d %d, want 12 22 23", m.Load(a), m.Load(b), m.Load(b+1))
	}

	p.Reset()
	if res := e.Execute(0, func(tx *Txn) { tx.Overwrite(a, 13) }); !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	fp := p.Footprints()
	if len(fp) != 1 || fp[0].ReadMax != 0 || fp[0].WriteMax != 1 {
		t.Fatalf("footprint of one Overwrite = %+v, want 0 read lines and 1 write line", fp)
	}
}

// TestOverwriteIsExchangeWithoutTheLoad: Overwrite swaps its value into the
// write buffer as an exchange would, at ReadCost+WriteCost each, with the line
// in the write set only, but loads nothing: HeldWord reads memory's word
// under it, not the buffered one, until the commit stores it.
func TestOverwriteIsExchangeWithoutTheLoad(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	m.Store(a, 10)

	tx := e.Begin(0)
	tx.Overwrite(a, 11)
	tx.Overwrite(a, 12)
	if c, r, w := tx.Footprint(); c != 6 || r != 0 || w != 1 {
		t.Fatalf("two Overwrites: %d cycles, %d read lines, %d write lines; want 6, 0 and 1", c, r, w)
	}
	if got := tx.HeldWord(a); got != 10 {
		t.Fatalf("HeldWord = %d, want memory's 10", got)
	}
	if got := tx.Read(a); got != 12 {
		t.Fatalf("Read after Overwrite = %d, want the buffered 12", got)
	}
	tx.Commit()
	if got := m.Load(a); got != 12 {
		t.Fatalf("committed %d, want 12", got)
	}
}

func TestOverwriteOnWriteLinePanics(t *testing.T) {
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Overwrite on a WriteLine line did not panic")
		}
	}()
	e.Execute(0, func(tx *Txn) {
		var vals [mem.LineWords]uint64
		tx.WriteLine(base, &vals)
		tx.Overwrite(base+2, 1)
	})
}

// TestOverwriteConflictsLikeWrite: the write monitor alone stands in for the
// read monitor a Read+Write pair would also hold.
func TestOverwriteConflictsLikeWrite(t *testing.T) {
	t.Run("read dooms overwriter", func(t *testing.T) {
		e := newTestEngine(1024, nil)
		a := e.Memory().Alloc(1)
		e.Memory().Store(a, 10)
		r1, r2 := runConflict(e,
			func(tx *Txn, sync1 chan struct{}) {
				tx.Overwrite(a, 99)
				close(sync1)
				for !tx.Doomed() {
				}
				tx.Work(1)
			},
			func(tx *Txn, sync1 chan struct{}) {
				<-sync1
				if got := tx.Read(a); got != 10 {
					t.Errorf("reader saw uncommitted value %d", got)
				}
			},
		)
		if r1.Committed || r1.Reason != abort.Conflict {
			t.Fatalf("overwriter should be doomed by the read, got %+v", r1)
		}
		if !r2.Committed {
			t.Fatalf("reader should commit, got %+v", r2)
		}
	})

	t.Run("non-transactional write dooms overwriter", func(t *testing.T) {
		e := newTestEngine(1024, nil)
		m := e.Memory()
		a := m.AllocLines(1)
		tx := e.Begin(0)
		tx.Overwrite(a, 1)
		m.Store(a+1, 7) // same line
		if !tx.Doomed() {
			t.Fatal("overwriter survived a non-transactional write to its line")
		}
		defer func() {
			if res, ok := AsAbort(recover()); !ok || res.Reason != abort.Conflict {
				t.Fatalf("want Conflict abort, got %+v (abort=%v)", res, ok)
			}
			if m.Load(a) != 0 || m.Load(a+1) != 7 {
				t.Fatalf("memory = %d %d, want 0 7", m.Load(a), m.Load(a+1))
			}
		}()
		tx.Commit()
	})

	t.Run("capacity aborts at the same write", func(t *testing.T) {
		// TestWriteCapacityAssociativity's shape: 2 ways, lines four apart
		// share a set, so the third one overflows it.
		for _, over := range []bool{false, true} {
			e := newTestEngine(1<<16, func(c *Config) {
				c.WriteSets = 4
				c.WriteWays = 2
				c.WriteLines = 8
			})
			base := e.Memory().AllocLinesAligned(16, 4)
			wrote := 0
			res := e.Execute(0, func(tx *Txn) {
				for i := 0; i < 3; i++ {
					a := base + mem.Addr(i*4*mem.LineWords)
					if over {
						tx.Overwrite(a, 1)
					} else {
						tx.Write(a, 1)
					}
					wrote++
				}
			})
			if res.Committed || res.Reason != abort.Capacity || wrote != 2 {
				t.Fatalf("overwrite=%v: %+v after %d writes, want a capacity abort at the third", over, res, wrote)
			}
		}
	})
}

// TestCommitReleasesLineByLine: Commit stores and releases the youngest
// line first. With the older line's lock held, the younger is readable at
// its new value while the commit is still in progress, and the older still
// names the committing writer — so nobody can read it until it is stored.
func TestCommitReleasesLineByLine(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(2)
	b := a + mem.LineWords
	la := mem.LineOf(a)

	tx := e.Begin(0)
	tx.Write(a, 1)
	tx.Write(b, 2)
	tx.Write(b+1, 3)

	held := m.Lock(la)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx.Commit()
	}()
	for tx.status.Load() != stCommitting {
		runtime.Gosched()
	}
	// Load retries while b's line names the committing writer, so it
	// returns only once that line has been stored and released.
	if got := m.Load(b); got != 2 {
		t.Errorf("Load(b) during the commit = %d, want 2", got)
	}
	if got := m.Load(b + 1); got != 3 {
		t.Errorf("Load(b+1) during the commit = %d, want 3", got)
	}
	if st := tx.status.Load(); st != stCommitting {
		t.Errorf("status = %d with a's line locked, want stCommitting", st)
	}
	if w := e.entryOf(la).writer(); w != 1 {
		t.Errorf("a's line names writer %d before it is stored, want slot 0", w)
	}
	if got := m.RawLoad(a); got != 0 {
		t.Errorf("a stored as %d with its line locked", got)
	}
	m.Unlock(la, held)
	<-done
	if got := m.Load(a); got != 1 {
		t.Fatalf("Load(a) after the commit = %d, want 1", got)
	}
	if e.Stats().Commits.Load() != 1 {
		t.Fatal("commit not counted")
	}
}

// TestCommitKeepsWriteMonitorUntilLastWord: a line with several buffered
// words is released at its oldest entry, the last one stored.
func TestCommitKeepsWriteMonitorUntilLastWord(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().AllocLines(2)
	b := a + mem.LineWords
	tx := e.Begin(0)
	tx.Write(a, 1)
	tx.Write(b, 2)
	tx.Write(a+1, 3) // younger than b's entry, on a's line
	for i, want := range []bool{true, true, false} {
		if tx.wb[i].first != want {
			t.Fatalf("entry %d first = %v, want %v", i, tx.wb[i].first, want)
		}
	}
	tx.Commit()
	for _, l := range []mem.Line{mem.LineOf(a), mem.LineOf(b)} {
		if en := e.entryOf(l); en != 0 {
			t.Fatalf("line %d still monitored after commit: %#x", l, en)
		}
	}
}
