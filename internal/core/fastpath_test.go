package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sig"
	"repro/internal/tm"
)

// TestPartitionedBeginDoomsCheckedFastTransaction pins what the summary
// check rests on: a fast transaction that has read activeTx == 0 under a
// monitor is doomed by the very next partitioned begin, before that
// transaction can publish a lock bit or snapshot a timestamp. Part-HTM reads
// the count at commit as its last access, with a raw load, since nothing can
// follow it that the begin could race; so the body makes a monitored read
// itself before it parks, and the test pins the engine side of the argument.
func TestPartitionedBeginDoomsCheckedFastTransaction(t *testing.T) {
	partitionedBeginDoomsFastTransaction(t, false)
}

// TestPartitionedBeginDoomsUncheckedOpaqueFastTransaction is the same for
// Part-HTM-O, whose fast path reads activeTx at begin: an attempt that read
// activeTx == 0 skips every lock-cell check and the ring publication, and the
// next partitioned begin dooms it before that transaction can lock a cell.
func TestPartitionedBeginDoomsUncheckedOpaqueFastTransaction(t *testing.T) {
	partitionedBeginDoomsFastTransaction(t, true)
}

// partitionedBeginDoomsFastTransaction builds the interleaving of the two
// tests above. No sleeps: simulated memory's line locks freeze both
// transactions where the test needs them. The fast body, once it has written
// its datum (and, for Part-HTM, read activeTx under the monitor), reads a
// line whose lock the test holds, and stops there. The partitioned attempt
// increments activeTx and stops at its next step, the timestamp snapshot, on
// a lock the test also holds: at that point the increment is the only thing
// it has done.
func partitionedBeginDoomsFastTransaction(t *testing.T, opaque bool) {
	s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = opaque })
	m := s.Memory()
	counter, park, other := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
	tsLine := mem.LineOf(s.doms.Ring(0).TimestampAddr())
	heldPark := m.Lock(mem.LineOf(park))
	heldTS := m.Lock(tsLine)

	f := s.threads[0]
	var once sync.Once
	parked := make(chan struct{})
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		s.Atomic(0, func(x tm.Tx) {
			x.Write(counter, x.Read(counter)+1)
			if !opaque && f.ht.Read(s.activeTx) != 0 {
				t.Error("activeTx != 0 with no partitioned transaction begun")
			}
			once.Do(func() { close(parked) })
			x.Read(park)
		})
	}()
	<-parked
	// Both written before the body signalled.
	fast, checked := f.ht, f.checkCells
	if fast.Doomed() {
		t.Fatal("the fast transaction was doomed before any partitioned transaction began")
	}
	if checked {
		t.Fatal("the fast transaction checks lock cells with no partitioned transaction active")
	}

	partDone := make(chan bool)
	go func() {
		p := s.threads[1]
		partDone <- s.partitionedAttempt(p, func(x tm.Tx) { x.Read(other) })
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
	m.Unlock(mem.LineOf(park), heldPark)
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
		done <- s.partitionedAttempt(p, func(x tm.Tx) {
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
	res := s.fastAttempt(f, func(x tm.Tx) { x.Write(lockedAddr, 9) })
	if res.Committed || res.Reason != abort.Explicit || res.Code != codeLockHit {
		t.Fatalf("fast write over a locked location: %+v, want an explicit codeLockHit abort", res)
	}
	if res := s.fastAttempt(f, func(x tm.Tx) { x.Write(free, 9) }); !res.Committed {
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
	for op, body := range map[string]func(tm.Tx){
		"read":  func(x tm.Tx) { x.Read(lockedAddr) },
		"write": func(x tm.Tx) { x.Write(lockedAddr, 9) },
	} {
		if res := s.fastAttempt(f, body); res.Committed || res.Reason != abort.Explicit || res.Code != codeLockHit {
			t.Fatalf("fast %s of a locked location: %+v, want an explicit codeLockHit abort", op, res)
		}
	}

	res := s.fastAttempt(f, func(x tm.Tx) {
		x.Write(free, 9)
		p := s.threads[2]
		if !s.partitionedAttempt(p, func(x tm.Tx) { x.Write(other, 5) }) {
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
		aDone <- s.partitionedAttempt(a, func(x tm.Tx) {
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
		bDone <- s.partitionedAttempt(b, func(x tm.Tx) {
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
	if s.partitionedAttempt(f, func(x tm.Tx) {
		if v := x.Read(lockedAddr); v == 7 {
			t.Error("a segment read a locked (non-visible) value")
		}
	}) {
		t.Fatal("a partitioned read of a locked location committed")
	}

	runs := 0
	if !s.partitionedAttempt(f, func(x tm.Tx) {
		runs++
		x.Write(free, 9)
		if !f.checkCells {
			t.Error("a segment that began at activeTx == 2 skips its cell checks")
		}
		p := s.threads[2]
		if !s.partitionedAttempt(p, func(x tm.Tx) { x.Read(other) }) {
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
// monitored lines. While no partitioned transaction runs a fast commit
// publishes nothing, so neither the timestamp nor a ring entry is in its
// footprint.
func TestFastCommitMetadataFootprint(t *testing.T) {
	// A one-write transaction reads the global-lock line and writes its
	// datum; its commit-time read of the active count is a raw load. Every
	// fast commit reads that one line and writes its datum, so the maxima are
	// exact.
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
			rows[0].Outcome != prof.OutcomeName(abort.None) || rows[0].Count != 3 {
			t.Fatalf("want three fast-class commits and nothing else, got %+v", rows)
		}
		if r := rows[0]; r.ReadMax != 1 || r.WriteMax != 1 {
			t.Fatalf("a one-write fast commit monitored %d read and %d write lines, want 1 and 1", r.ReadMax, r.WriteMax)
		}
	})

	// A transaction that reads k distinct lines and writes one of them reads
	// those k, the global lock and the active count while no partitioned
	// transaction runs. While one does, it reads the k lock cells and the ring
	// header it publishes to as well, and not the active count.
	t.Run("Part-HTM-O", func(t *testing.T) {
		const k = 5
		s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = true })
		m := s.Memory()
		data, lockedAddr := m.AllocLines(k), m.AllocLines(1)
		f := s.threads[0]
		readLines := func() int {
			var ht *htm.Txn
			res := s.fastAttempt(f, func(x tm.Tx) {
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
		if r := readLines(); r != k+2 {
			t.Fatalf("idle: a %d-read fast commit monitored %d read lines, want %d", k, r, k+2)
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

// TestDisjointFastCommitsNeverConflict: fast transactions of two threads on
// disjoint lines share no line that either writes while no partitioned
// transaction runs, since neither publishes to the ring, so none of them
// aborts for a conflict and none leaves the fast path, under every
// interleaving.
func TestDisjointFastCommitsNeverConflict(t *testing.T) {
	const (
		threads = 2
		txns    = 5000
		lines   = 16
		rmws    = 4
	)
	for _, opaque := range []bool{false, true} {
		s := newSystem(threads, 1<<17, nil, func(c *Config) { c.Opaque = opaque })
		t.Run(s.Name(), func(t *testing.T) {
			m := s.Memory()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for id := 0; id < threads; id++ {
				own := m.AllocLines(lines)
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < txns; i++ {
						s.Atomic(id, func(x tm.Tx) {
							for j := 0; j < rmws; j++ {
								a := own + mem.Addr((i*rmws+j)%lines*mem.LineWords)
								x.Write(a, x.Read(a)+1)
							}
						})
					}
				}()
			}
			close(start)
			wg.Wait()
			st := s.Stats().Snapshot()
			if st.AbortsConflict != 0 || st.CommitsSW != 0 || st.CommitsGL != 0 {
				t.Fatalf("disjoint fast transactions: %d conflict aborts, %d partitioned and %d lock commits, want none: %+v",
					st.AbortsConflict, st.CommitsSW, st.CommitsGL, st)
			}
			if st.CommitsHTM != threads*txns {
				t.Fatalf("hardware commits = %d, want %d", st.CommitsHTM, threads*txns)
			}
		})
	}
}

// TestFastHandleRoutesDomains: at N > 1 the fast handles still route every
// access. A fast transaction that reads in domain 0 and writes in domain 1
// commits in hardware as one cross-domain commit, and while a partitioned
// transaction runs its commit publishes to domain 1's ring alone.
func TestFastHandleRoutesDomains(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		s := newSystem(2, 1<<18, nil, func(c *Config) {
			c.Domains = 2
			c.Opaque = opaque
		})
		t.Run(s.Name(), func(t *testing.T) {
			x0, y1, p0 := s.doms.AllocLinesIn(0, 1), s.doms.AllocLinesIn(1, 1), s.doms.AllocLinesIn(0, 1)
			if !sig.CollisionFree([]uint32{uint32(x0), uint32(y1), uint32(p0)}) {
				t.Skip("the test addresses share a signature bit")
			}
			body := func(x tm.Tx) { x.Write(y1, x.Read(x0)+1) }
			s.Atomic(0, body)
			if st := s.Stats().Snapshot(); st.CommitsHTM != 1 || st.Commits() != 1 || st.CrossDomainCommits != 1 {
				t.Fatalf("want one cross-domain hardware commit, got %+v", st)
			}

			release := parkPartitioned(t, s, 1, p0, 7)
			ts0, ts1 := s.doms.Ring(0).Timestamp(), s.doms.Ring(1).Timestamp()
			if res := s.fastAttempt(s.threads[0], body); !res.Committed {
				t.Fatalf("the fast attempt beside a partitioned transaction did not commit: %+v", res)
			}
			if got0, got1 := s.doms.Ring(0).Timestamp(), s.doms.Ring(1).Timestamp(); got0 != ts0 || got1 != ts1+1 {
				t.Errorf("timestamps %d, %d after a commit that wrote domain 1 alone, want %d, %d", got0, got1, ts0, ts1+1)
			}
			if !release() {
				t.Fatal("the parked partitioned attempt did not commit")
			}
			if y, p := s.m.Load(y1), s.m.Load(p0); y != 1 || p != 7 {
				t.Fatalf("y = %d, p = %d; want 1 and 7", y, p)
			}
		})
	}
}

// TestInFlightValidationSeesFastCommit: a fast commit made while a
// partitioned transaction runs publishes its write signature, so that
// transaction's validation sees it. A reads y and commits that segment, so y
// is in its validated snapshot; a fast transaction then writes y while A is
// parked. The timestamp advances, A fails validation and retries, and its
// retry commits with the fast transaction's value.
func TestInFlightValidationSeesFastCommit(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		s := newSystem(2, 1<<17, nil, func(c *Config) {
			c.NoFastPath = true // A runs on the partitioned path
			c.Opaque = opaque
		})
		t.Run(s.Name(), func(t *testing.T) {
			m := s.Memory()
			x0, y0 := m.AllocLines(1), m.AllocLines(1)
			m.Store(x0, 1)

			var once sync.Once
			var seen []uint64
			parked, resume := make(chan struct{}), make(chan struct{})
			aDone := make(chan struct{})
			go func() {
				defer close(aDone)
				s.Atomic(0, func(x tm.Tx) {
					v := x.Read(y0)
					x.Pause() // commit segment 1: v is now part of the validated snapshot
					seen = append(seen, v)
					once.Do(func() {
						close(parked)
						<-resume
					})
					x.Write(x0, v+10)
				})
			}()
			<-parked
			if got := m.Load(s.activeTx); got != 1 {
				t.Fatalf("activeTx = %d with A parked", got)
			}
			ts0 := s.doms.Ring(0).Timestamp()
			b := s.threads[1]
			if res := s.fastAttempt(b, func(x tm.Tx) { x.Write(y0, 7) }); !res.Committed {
				t.Fatalf("the fast write of y did not commit: %+v", res)
			}
			if got := s.doms.Ring(0).Timestamp(); got != ts0+1 {
				t.Errorf("timestamp %d after a fast commit made while A runs, want %d", got, ts0+1)
			}
			close(resume)
			<-aDone

			// Segment 1 replays within an attempt, so seen has one entry per
			// body run that got past it.
			if len(seen) < 2 || seen[0] != 0 || seen[len(seen)-1] != 7 {
				t.Errorf("A's y per run = %v, want 0 first and 7 last", seen)
			}
			if got := m.Load(x0); got != 17 {
				t.Fatalf("x = %d, want 17 (A must retry with the fast transaction's value)", got)
			}
			if st := s.Stats().Snapshot(); st.CommitsSW != 1 || st.CommitsGL != 0 {
				t.Fatalf("want A's one partitioned commit, got %+v", st)
			}
		})
	}
}

// TestPartitionedBeginDuringFastAttemptSeesItsCommit: a partitioned
// transaction A that begins while a fast attempt runs validates against that
// attempt's commit. For Part-HTM-O, A begins after the attempt's unmonitored
// peek at activeTx saw 0 and before its monitored read, so only that read
// tells the attempt to publish. The fast attempt stops at its global-lock
// read, on a line lock the test holds, and A increments activeTx; then both
// go on. A reads y and commits that segment, the fast attempt writes y and z
// and commits, and A then reads z: it must fail validation rather than
// commit the old y with the new z, and its retry commits with both new.
func TestPartitionedBeginDuringFastAttemptSeesItsCommit(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = opaque })
		t.Run(s.Name(), func(t *testing.T) {
			m := s.Memory()
			y0, z0 := m.AllocLines(1), m.AllocLines(1)
			glockLine := mem.LineOf(s.glock)
			held := m.Lock(glockLine)

			f, p := s.threads[0], s.threads[1]
			aRead, fastDone := make(chan struct{}), make(chan struct{})
			var res htm.Result
			go func() {
				defer close(fastDone)
				res = s.fastAttempt(f, func(x tm.Tx) {
					<-aRead
					x.Write(y0, 1)
					x.Write(z0, 1)
				})
			}()
			for !lockWaiterIn("core.(*System).fastAttempt(") {
				runtime.Gosched()
			}

			var once sync.Once
			var seen [][2]uint64
			resume := make(chan struct{})
			a := func(x tm.Tx) {
				y := x.Read(y0)
				x.Pause() // y is now part of the validated snapshot
				once.Do(func() {
					close(aRead)
					<-resume
				})
				seen = append(seen, [2]uint64{y, x.Read(z0)})
			}
			aDone := make(chan bool)
			go func() { aDone <- s.partitionedAttempt(p, a) }()
			for m.Load(s.activeTx) != 1 {
				runtime.Gosched()
			}
			ts0 := s.doms.Ring(0).Timestamp()
			m.Unlock(glockLine, held)

			<-fastDone
			if !res.Committed {
				t.Fatalf("the fast attempt did not commit: %+v", res)
			}
			if got := s.doms.Ring(0).Timestamp(); got != ts0+1 {
				t.Errorf("timestamp %d after a fast commit made while A runs, want %d", got, ts0+1)
			}
			close(resume)
			if <-aDone {
				t.Fatalf("A committed having read y and z = %v around the fast commit", seen)
			}
			if !s.partitionedAttempt(p, a) {
				t.Fatal("A's retry did not commit")
			}
			if last := seen[len(seen)-1]; last != [2]uint64{1, 1} {
				t.Errorf("A's retry read y and z = %v, want both 1", last)
			}
			if opaque && len(seen) != 1 {
				t.Errorf("Part-HTM-O's A read y and z = %v, want only its retry's pair", seen)
			}
		})
	}
}

// TestCommittingPartitionedTransactionStillCounts: a partitioned transaction
// counts in activeTx until it has claimed its timestamp, published and
// released its locks, because it can still abort until it has claimed. A
// reads y, writes w and commits that segment; a fast commit then writes y
// and publishes. A's global commit stops in its timestamp claim, on a line
// lock the test holds, and there a fast attempt reads w: it must not skip
// the lock check and commit A's value, because A's claim then fails on the
// published y and rolls w back.
func TestCommittingPartitionedTransactionStillCounts(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		s := newSystem(2, 1<<17, nil, func(c *Config) { c.Opaque = opaque })
		t.Run(s.Name(), func(t *testing.T) {
			m := s.Memory()
			y0, w0 := m.AllocLines(1), m.AllocLines(1)
			if !sig.CollisionFree([]uint32{uint32(y0), uint32(w0)}) {
				t.Skip("the two test addresses share a signature bit")
			}
			tsLine := mem.LineOf(s.doms.Ring(0).TimestampAddr())
			f, p := s.threads[0], s.threads[1]

			parked, resume := make(chan struct{}), make(chan struct{})
			aDone := make(chan bool)
			go func() {
				aDone <- s.partitionedAttempt(p, func(x tm.Tx) {
					x.Read(y0)
					x.Write(w0, 1)
					x.Pause() // w is written in place and locked
					close(parked)
					<-resume
				})
			}()
			<-parked
			if res := s.fastAttempt(f, func(x tm.Tx) { x.Write(y0, 7) }); !res.Committed {
				t.Fatalf("the fast write of y did not commit: %+v", res)
			}

			held := m.Lock(tsLine)
			close(resume)
			for !lockWaiterIn("domain.(*Domains).ClaimTimestamp(") {
				runtime.Gosched()
			}
			if got := m.Load(s.activeTx); got != 1 {
				t.Errorf("activeTx = %d while A claims its timestamp, want 1", got)
			}
			var w uint64
			res := s.fastAttempt(f, func(x tm.Tx) { w = x.Read(w0) })
			m.Unlock(tsLine, held)

			if <-aDone {
				t.Fatal("A committed over a published write of a location it read")
			}
			if res.Committed && w == 1 {
				t.Error("a fast attempt committed having read w = 1, which A then rolled back")
			}
			if got := m.Load(w0); got != 0 {
				t.Fatalf("w = %d after A's abort, want 0", got)
			}
		})
	}
}

// TestOwnerEntryClearedBeforeDecrement: a Part-HTM-O transaction releases
// its cells, by clearing its owner entry, before it leaves activeTx, so a
// count of 0 still proves that no cell is held. A's global commit stops in
// that release, on the entry's line lock, which the test holds: A must still
// count, and its cell must still equal its entry.
func TestOwnerEntryClearedBeforeDecrement(t *testing.T) {
	s := newSystem(1, 1<<17, nil, func(c *Config) {
		c.Opaque = true
		c.NoFastPath = true
	})
	m := s.Memory()
	x0 := m.AllocLines(1)
	p := s.threads[0]
	parked, resume := make(chan struct{}), make(chan struct{})
	done := make(chan bool)
	go func() {
		done <- s.partitionedAttempt(p, func(x tm.Tx) {
			x.Write(x0, 1)
			x.Pause() // x's cell now holds A's tag
			close(parked)
			<-resume
		})
	}()
	<-parked
	entryLine := mem.LineOf(s.ownerEntry(p.id))
	held := m.Lock(entryLine)
	close(resume)
	for !lockWaiterIn("core.(*System).partitionedAttempt(") {
		select {
		case <-done:
			t.Fatal("A ended without storing to its owner entry")
		default:
			runtime.Gosched()
		}
	}
	if got := m.Load(s.activeTx); got != 1 {
		t.Errorf("activeTx = %d while A clears its owner entry, want 1", got)
	}
	if c, e := m.Load(s.cell(x0)), m.RawLoad(s.ownerEntry(p.id)); c != e || c&1 == 0 {
		t.Errorf("x's cell holds %#x and A's entry %#x before the release, want A's tag in both", c, e)
	}
	m.Unlock(entryLine, held)
	if !<-done {
		t.Fatal("A did not commit")
	}
	if err := releasedErr(s, x0); err != nil {
		t.Error(err)
	}
	if got := m.Load(s.activeTx); got != 0 {
		t.Errorf("activeTx = %d after A's commit", got)
	}
}

// TestAloneFastAttemptChecksLocksTakenDuringIt: a Part-HTM fast attempt that
// begins alone keeps no read signature, so when its commit finds a
// partitioned transaction running it checks every word of every line it
// monitors instead. Here the attempt begins alone, a partitioned transaction
// then begins, writes x, which locks it, and commits that segment, and the
// attempt reads x, getting that transaction's uncommitted value, and tries to
// commit. It must abort with codeLockHit. In the second case x shares a line
// with a word the attempt wrote before reading it, so the line is in its
// write set too.
func TestAloneFastAttemptChecksLocksTakenDuringIt(t *testing.T) {
	for _, tc := range []struct {
		name      string
		writeLine bool
	}{{"read", false}, {"read after a write to its line", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(2, 1<<17, nil, nil)
			m := s.Memory()
			x0 := m.AllocLines(1)
			w0 := x0 + 1
			if !sig.CollisionFree([]uint32{uint32(x0), uint32(w0)}) {
				t.Skip("the two test addresses share a signature bit")
			}
			f := s.threads[0]
			begun, locked := make(chan struct{}), make(chan struct{})
			var v uint64
			fastDone := make(chan htm.Result)
			go func() {
				fastDone <- s.fastAttempt(f, func(x tm.Tx) {
					close(begun)
					<-locked
					if tc.writeLine {
						x.Write(w0, 1)
					}
					v = x.Read(x0)
				})
			}()
			<-begun
			release := parkPartitioned(t, s, 1, x0, 7)
			close(locked)
			res := <-fastDone
			if res.Committed || res.Reason != abort.Explicit || res.Code != codeLockHit {
				t.Fatalf("a fast attempt that read x = %d, locked by a partitioned transaction that began during it: %+v, want an explicit codeLockHit abort", v, res)
			}
			if v != 7 {
				t.Errorf("the attempt read x = %d, want the partitioned transaction's uncommitted 7", v)
			}
			if !release() {
				t.Fatal("the parked partitioned attempt did not commit")
			}
			if a, b := m.Load(x0), m.Load(w0); a != 7 || b != 0 {
				t.Fatalf("x = %d, w = %d; want 7 and 0", a, b)
			}
		})
	}
}

// TestGateLoadsRawWhileLockFree: Part-HTM's gate reads the global lock with a
// raw load, free or held. The test holds the lock word's line lock throughout.
// With the lock free an Atomic passes the gate and waits in its fast attempt's
// monitored read of the lock. With the lock held it spins in the gate without
// waiting for the line, so a raw store that frees the lock lets it on to that
// same read.
func TestGateLoadsRawWhileLockFree(t *testing.T) {
	const inFast, inGate = "core.(*System).fastAttempt(", "exec.(*Runner).awaitGate("
	for _, lock := range []uint64{0, 1} {
		s := newSystem(1, 1<<17, nil, nil)
		m := s.Memory()
		a := m.AllocLines(1)
		m.Store(s.glock, lock)
		glockLine := mem.LineOf(s.glock)
		held := m.Lock(glockLine)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
		}()
		if lock != 0 {
			for !goroutineIn(inGate) {
				runtime.Gosched()
			}
			m.RawStore(s.glock, 0)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !lockWaiterIn(inFast) {
			if time.Now().After(deadline) {
				t.Fatalf("global lock %d: the Atomic never reached its fast attempt's read of the lock (waiting for the line in the gate: %v)", lock, lockWaiterIn(inGate))
			}
			runtime.Gosched()
		}
		m.Unlock(glockLine, held)
		<-done
		if got := m.Load(a); got != 1 {
			t.Fatalf("global lock %d: the Atomic wrote %d, want 1", lock, got)
		}
	}
}

// goroutineIn reports whether some goroutine has frame on its stack.
func goroutineIn(frame string) bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	return bytes.Contains(buf[:n], []byte(frame))
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
