package core

import (
	"runtime"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sig"
	"repro/internal/tm"
)

// TestPartitionedBeginDoomsCheckedFastTransaction pins the soundness of the
// fast path's summary check: a fast transaction that has read activeTx == 0
// and skipped the write-locks signatures is doomed by the very next
// partitioned begin, before that transaction can publish a lock bit.
func TestPartitionedBeginDoomsCheckedFastTransaction(t *testing.T) {
	partitionedBeginDoomsFastTransaction(t, false)
}

// TestPartitionedBeginDoomsUncheckedOpaqueFastTransaction is the same for
// Part-HTM-O, whose fast path reads activeTx at begin: an attempt that read
// activeTx == 0 skips every lock-cell check, and the next partitioned begin
// dooms it before that transaction can lock a cell.
func TestPartitionedBeginDoomsUncheckedOpaqueFastTransaction(t *testing.T) {
	partitionedBeginDoomsFastTransaction(t, true)
}

// partitionedBeginDoomsFastTransaction builds the interleaving of the two
// tests above. No sleeps: simulated memory's line locks freeze both
// transactions where the test needs them. A probe hardware transaction holds
// the timestamp line in its write set, so the fast transaction's timestamp
// increment — at commit, after its activeTx read — dooms the probe, which the
// test can observe; the fast transaction then stops at the ring entry's
// header line, whose lock the test holds. The partitioned attempt increments
// activeTx and stops at its next step, the timestamp snapshot, on a lock the
// test also holds: at that point the increment is the only thing it has done.
func partitionedBeginDoomsFastTransaction(t *testing.T, opaque bool) {
	s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = opaque })
	m := s.Memory()
	counter, other := m.AllocLines(1), m.AllocLines(1)
	rg := s.doms.Ring(0)
	tsLine, headerLine := mem.LineOf(rg.TimestampAddr()), mem.LineOf(rg.SeqAddr(1))

	probe := s.eng.Begin(2)
	probe.Write(rg.TimestampAddr(), 0)
	heldHeader := m.Lock(headerLine)

	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		s.Atomic(0, func(x tm.Tx) { x.Write(counter, x.Read(counter)+1) })
	}()
	for !probe.Doomed() {
		runtime.Gosched()
	}
	probe.Cancel()
	heldTS := m.Lock(tsLine)
	// Both ordered after the fast thread's stores by the probe's doom.
	fast, checked := s.threads[0].ht, s.threads[0].checkCells
	if fast.Doomed() {
		t.Fatal("the fast transaction was doomed before any partitioned transaction began")
	}
	if checked {
		t.Fatal("the fast transaction checks lock cells with no partitioned transaction active")
	}

	partDone := make(chan bool)
	go func() {
		p := s.threads[1]
		partDone <- s.partitionedAttempt(p, &tx{s: s, t: p}, func(x tm.Tx) { x.Read(other) })
	}()
	for m.Load(s.activeTx) != 1 {
		runtime.Gosched()
	}
	if !fast.Doomed() {
		t.Fatal("a partitioned begin did not doom a fast transaction that had seen activeTx == 0")
	}

	m.Unlock(tsLine, heldTS)
	if !<-partDone {
		t.Fatal("the read-only partitioned attempt did not commit")
	}
	m.Unlock(headerLine, heldHeader)
	<-fastDone

	if got := m.Load(counter); got != 1 {
		t.Fatalf("counter = %d after one increment that ran twice", got)
	}
	st := s.Stats().Snapshot()
	if st.CommitsHTM != 1 || st.AbortsConflict != 1 || st.Aborts() != 1 {
		t.Fatalf("want one conflict abort and then a hardware commit, got %+v", st)
	}
}

// parkPartitioned runs a partitioned transaction on thread id that writes a,
// commits the sub-HTM transaction that locks it, and waits there until the
// returned release is called; release reports whether it then committed.
func parkPartitioned(t *testing.T, s *System, id int, a mem.Addr, v uint64) (release func() bool) {
	locked, resume := make(chan struct{}), make(chan struct{})
	done := make(chan bool)
	go func() {
		p := s.threads[id]
		done <- s.partitionedAttempt(p, &tx{s: s, t: p}, func(x tm.Tx) {
			x.Write(a, v)
			x.Pause() // the sub-HTM commit publishes the lock
			close(locked)
			<-resume
		})
	}()
	<-locked
	if got := s.Memory().Load(s.activeTx); got != 1 {
		t.Fatalf("activeTx = %d with one partitioned transaction parked", got)
	}
	return func() bool {
		close(resume)
		return <-done
	}
}

// TestFastPathReadsSignaturesWhilePartitionedActive: with activeTx != 0 the
// summary proves nothing, so the fast path still checks the write-locks
// signature itself: it aborts on a location a parked partitioned transaction
// has locked and commits in hardware on disjoint data.
func TestFastPathReadsSignaturesWhilePartitionedActive(t *testing.T) {
	s := newSystem(2, 1<<17, nil, nil)
	m := s.Memory()
	lockedAddr, free := m.AllocLines(1), m.AllocLines(1)
	if !sig.CollisionFree([]uint32{uint32(lockedAddr), uint32(free)}) {
		t.Skip("the two test addresses share a signature bit")
	}
	release := parkPartitioned(t, s, 1, lockedAddr, 7)

	f := s.threads[0]
	x := &tx{s: s, t: f}
	res := s.fastAttempt(f, x, func(x tm.Tx) { x.Write(lockedAddr, 9) })
	if res.Committed || res.Reason != htm.Explicit || res.Code != codeLockHit {
		t.Fatalf("fast write over a locked location: %+v, want an explicit codeLockHit abort", res)
	}
	if res := s.fastAttempt(f, x, func(x tm.Tx) { x.Write(free, 9) }); !res.Committed {
		t.Fatalf("fast write of disjoint data while a partitioned transaction is active: %+v", res)
	}

	if !release() {
		t.Fatal("the parked partitioned attempt did not commit")
	}
	if a, b := m.Load(lockedAddr), m.Load(free); a != 7 || b != 9 {
		t.Fatalf("locked = %d, free = %d; want 7 and 9", a, b)
	}
}

// TestOpaqueFastPathChecksCellsWhilePartitionedActive: with activeTx != 0
// Part-HTM-O's fast path checks each location's lock cell: a read and a write
// of a location a parked partitioned transaction has locked abort with
// codeLockHit, and disjoint data commits in hardware. Such a checked attempt
// keeps activeTx out of its read set, so a partitioned transaction that
// begins and commits on disjoint data while it runs does not doom it.
func TestOpaqueFastPathChecksCellsWhilePartitionedActive(t *testing.T) {
	s := newSystem(3, 1<<17, nil, func(c *Config) { c.Opaque = true })
	m := s.Memory()
	lockedAddr, free, other := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
	release := parkPartitioned(t, s, 1, lockedAddr, 7)

	f := s.threads[0]
	x := &tx{s: s, t: f}
	for op, body := range map[string]func(tm.Tx){
		"read":  func(x tm.Tx) { x.Read(lockedAddr) },
		"write": func(x tm.Tx) { x.Write(lockedAddr, 9) },
	} {
		if res := s.fastAttempt(f, x, body); res.Committed || res.Reason != htm.Explicit || res.Code != codeLockHit {
			t.Fatalf("fast %s of a locked location: %+v, want an explicit codeLockHit abort", op, res)
		}
	}

	res := s.fastAttempt(f, x, func(x tm.Tx) {
		x.Write(free, 9)
		p := s.threads[2]
		if !s.partitionedAttempt(p, &tx{s: s, t: p}, func(x tm.Tx) { x.Write(other, 5) }) {
			t.Error("a partitioned transaction on disjoint data did not commit")
		}
	})
	if !res.Committed {
		t.Fatalf("a checked fast transaction did not survive a disjoint partitioned transaction: %+v", res)
	}

	if !release() {
		t.Fatal("the parked partitioned attempt did not commit")
	}
	if a, b, c := m.Load(lockedAddr), m.Load(free), m.Load(other); a != 7 || b != 9 || c != 5 {
		t.Fatalf("locked = %d, free = %d, other = %d; want 7, 9 and 5", a, b, c)
	}
}

// TestPartitionedBeginDoomsLoneOpaqueSegment: a sub-HTM segment of the only
// partitioned transaction, which read activeTx == 1 at begin, skips its
// lock-cell reads; the next partitioned begin dooms it before that
// transaction can lock a cell, its retry checks the cells, and so it never
// returns the other transaction's uncommitted value. No sleeps: A parks
// inside its open segment, and B stops at the timestamp snapshot that follows
// its increment, on a line lock the test holds.
func TestPartitionedBeginDoomsLoneOpaqueSegment(t *testing.T) {
	s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = true })
	m := s.Memory()
	xa, ya := m.AllocLines(1), m.AllocLines(1)
	m.Store(xa, 1)
	tsLine := mem.LineOf(s.doms.Ring(0).TimestampAddr())

	a := s.threads[0]
	var checked []bool
	var observed []uint64
	parked, resume := make(chan struct{}), make(chan struct{})
	aDone := make(chan bool)
	go func() {
		aDone <- s.partitionedAttempt(a, &tx{s: s, t: a}, func(x tm.Tx) {
			x.Read(ya)
			checked = append(checked, a.checkCells)
			if len(checked) == 1 {
				close(parked)
				<-resume
			}
			observed = append(observed, x.Read(xa))
		})
	}()
	<-parked
	seg := a.ht
	if checked[0] || seg.Doomed() {
		t.Fatalf("the lone segment checks cells (%v) or is doomed (%v) before anything else began", checked[0], seg.Doomed())
	}

	heldTS := m.Lock(tsLine)
	locked, resumeB := make(chan struct{}), make(chan struct{})
	bDone := make(chan bool)
	go func() {
		b := s.threads[1]
		bDone <- s.partitionedAttempt(b, &tx{s: s, t: b}, func(x tm.Tx) {
			x.Write(xa, 99)
			x.Pause() // the sub-HTM commit locks x and stores 99
			close(locked)
			<-resumeB
		})
	}()
	for m.Load(s.activeTx) != 2 {
		runtime.Gosched()
	}
	if !seg.Doomed() {
		t.Error("a partitioned begin did not doom a segment that had seen activeTx == 1")
	}
	if c := m.Load(s.cell(xa)); c != 0 {
		t.Errorf("x's cell holds %#x before B got past its begin", c)
	}
	m.Unlock(tsLine, heldTS)
	<-locked

	close(resume)
	if <-aDone {
		t.Error("A committed while x was locked")
	}
	for _, v := range observed {
		if v == 99 {
			t.Error("A returned B's uncommitted x")
		}
	}
	if len(checked) != 2 || !checked[1] {
		t.Errorf("cell checks per execution of A's body = %v, want [false true]", checked)
	}
	close(resumeB)
	if !<-bDone {
		t.Fatal("B did not commit")
	}
	if got := m.Load(xa); got != 99 {
		t.Fatalf("x = %d, want 99", got)
	}
}

// TestOpaqueSegmentChecksCellsWhilePartitionedActive: a segment that began
// while another partitioned transaction ran (activeTx == 2) checks each
// location's lock cell, so its read of a location a parked transaction has
// locked ends in a global abort. Such a checked segment keeps activeTx out of
// its read set, so a partitioned transaction that begins and commits on
// disjoint data while it runs does not doom it.
func TestOpaqueSegmentChecksCellsWhilePartitionedActive(t *testing.T) {
	s := newSystem(3, 1<<17, nil, func(c *Config) { c.Opaque = true })
	m := s.Memory()
	lockedAddr, free, other := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
	release := parkPartitioned(t, s, 1, lockedAddr, 7)

	f := s.threads[0]
	x := &tx{s: s, t: f}
	if s.partitionedAttempt(f, x, func(x tm.Tx) {
		if v := x.Read(lockedAddr); v == 7 {
			t.Error("a segment read a locked (non-visible) value")
		}
	}) {
		t.Fatal("a partitioned read of a locked location committed")
	}

	runs := 0
	if !s.partitionedAttempt(f, x, func(x tm.Tx) {
		runs++
		x.Write(free, 9)
		if !f.checkCells {
			t.Error("a segment that began at activeTx == 2 skips its cell checks")
		}
		p := s.threads[2]
		if !s.partitionedAttempt(p, &tx{s: s, t: p}, func(x tm.Tx) { x.Read(other) }) {
			t.Error("a read-only partitioned transaction on disjoint data did not commit")
		}
		if f.ht.Doomed() {
			t.Error("a disjoint partitioned begin and commit doomed a checked segment")
		}
	}) {
		t.Fatal("a checked segment on disjoint data did not commit")
	}
	if runs != 1 {
		t.Errorf("the checked segment's body ran %d times, want 1", runs)
	}

	if !release() {
		t.Fatal("the parked partitioned attempt did not commit")
	}
	if a, b := m.Load(lockedAddr), m.Load(free); a != 7 || b != 9 {
		t.Fatalf("locked = %d, free = %d; want 7 and 9", a, b)
	}
}

// TestFastCommitMetadataFootprint pins the fast path's metadata cost in
// monitored lines. The timestamp increment takes its line into the write set
// only.
func TestFastCommitMetadataFootprint(t *testing.T) {
	// A one-write transaction reads the global-lock line, the active count
	// and one ring-entry header, and writes its datum, the timestamp and that
	// header.
	t.Run("Part-HTM", func(t *testing.T) {
		s := newSystem(1, 1<<17, nil, nil)
		p := prof.New(prof.Config{Sets: s.eng.Config().WriteSets})
		s.eng.SetProfile(p)
		a := s.Memory().AllocLines(1)
		for i := 0; i < 3; i++ {
			s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
		}
		rows := p.Footprints()
		if len(rows) != 1 || rows[0].Class != prof.ClassName(prof.ClassFast) ||
			rows[0].Outcome != prof.OutcomeName(prof.OutcomeCommit) || rows[0].Count != 3 {
			t.Fatalf("want three fast-class commits and nothing else, got %+v", rows)
		}
		if r := rows[0]; r.WriteMax > 3 || r.ReadMax > 3 {
			t.Fatalf("a one-write fast commit monitored %d read and %d write lines, want at most 3 and 3", r.ReadMax, r.WriteMax)
		}
	})

	// A transaction that reads k distinct lines and writes one of them reads
	// those k, the global lock, the active count and a ring header while no
	// partitioned transaction runs. While one does, it reads the k lock cells
	// as well, and not the active count.
	t.Run("Part-HTM-O", func(t *testing.T) {
		const k = 5
		s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = true })
		m := s.Memory()
		data, lockedAddr := m.AllocLines(k), m.AllocLines(1)
		f := s.threads[0]
		x := &tx{s: s, t: f}
		readLines := func() int {
			var ht *htm.Txn
			res := s.fastAttempt(f, x, func(x tm.Tx) {
				for i := 0; i < k; i++ {
					x.Read(data + mem.Addr(i*mem.LineWords))
				}
				x.Write(data, 1)
				ht = f.ht
			})
			if !res.Committed {
				t.Fatalf("fast attempt: %+v", res)
			}
			_, r, _ := ht.Footprint() // readable until the slot's next Begin
			return r
		}
		if r := readLines(); r != k+3 {
			t.Fatalf("idle: a %d-read fast commit monitored %d read lines, want %d", k, r, k+3)
		}
		release := parkPartitioned(t, s, 1, lockedAddr, 7)
		if r := readLines(); r != 2*k+2 {
			t.Fatalf("partitioned active: a %d-read fast commit monitored %d read lines, want %d", k, r, 2*k+2)
		}
		if !release() {
			t.Fatal("the parked partitioned attempt did not commit")
		}
	})
}
