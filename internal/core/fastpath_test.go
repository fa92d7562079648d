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
//
// No sleeps: simulated memory's stripe locks freeze both transactions where
// the test needs them. A probe hardware transaction holds the timestamp line
// in its write set, so the fast transaction's timestamp read — its first
// step after the check — dooms the probe, which the test can observe; the
// fast transaction then stops at the ring entry's header line, whose stripe
// the test holds. The partitioned attempt increments activeTx and stops at
// its next step, the timestamp snapshot, on a stripe the test also holds: at
// that point the increment is the only thing it has done.
func TestPartitionedBeginDoomsCheckedFastTransaction(t *testing.T) {
	s := newSystem(2, 1<<17, nil, nil)
	m := s.Memory()
	counter, other := m.AllocLines(1), m.AllocLines(1)
	rg := s.doms.Ring(0)
	tsLine, headerLine := mem.LineOf(rg.TimestampAddr()), mem.LineOf(rg.SeqAddr(1))

	probe := s.eng.Begin(2)
	probe.Write(rg.TimestampAddr(), 0)
	m.Lock(headerLine)

	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		s.Atomic(0, func(x tm.Tx) { x.Write(counter, x.Read(counter)+1) })
	}()
	for !probe.Doomed() {
		runtime.Gosched()
	}
	probe.Cancel()
	m.Lock(tsLine)
	fast := s.threads[0].ht // ordered after the fast thread's store by the probe's doom
	if fast.Doomed() {
		t.Fatal("the fast transaction was doomed before any partitioned transaction began")
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

	m.Unlock(tsLine)
	if !<-partDone {
		t.Fatal("the read-only partitioned attempt did not commit")
	}
	m.Unlock(headerLine)
	<-fastDone

	if got := m.Load(counter); got != 1 {
		t.Fatalf("counter = %d after one increment that ran twice", got)
	}
	st := s.Stats().Snapshot()
	if st.CommitsHTM != 1 || st.AbortsConflict != 1 || st.Aborts() != 1 {
		t.Fatalf("want one conflict abort and then a hardware commit, got %+v", st)
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

	locked, release := make(chan struct{}), make(chan struct{})
	partDone := make(chan bool)
	go func() {
		p := s.threads[1]
		partDone <- s.partitionedAttempt(p, &tx{s: s, t: p}, func(x tm.Tx) {
			x.Write(lockedAddr, 7)
			x.Pause() // the sub-HTM commit publishes the lock bit
			close(locked)
			<-release
		})
	}()
	<-locked
	if got := m.Load(s.activeTx); got != 1 {
		t.Fatalf("activeTx = %d with one partitioned transaction parked", got)
	}

	f := s.threads[0]
	x := &tx{s: s, t: f}
	res := s.fastAttempt(f, x, func(x tm.Tx) { x.Write(lockedAddr, 9) })
	if res.Committed || res.Reason != htm.Explicit || res.Code != codeLockHit {
		t.Fatalf("fast write over a locked location: %+v, want an explicit codeLockHit abort", res)
	}
	if res := s.fastAttempt(f, x, func(x tm.Tx) { x.Write(free, 9) }); !res.Committed {
		t.Fatalf("fast write of disjoint data while a partitioned transaction is active: %+v", res)
	}

	close(release)
	if !<-partDone {
		t.Fatal("the parked partitioned attempt did not commit")
	}
	if a, b := m.Load(lockedAddr), m.Load(free); a != 7 || b != 9 {
		t.Fatalf("locked = %d, free = %d; want 7 and 9", a, b)
	}
}

// TestFastCommitMetadataFootprint pins the fast path's metadata cost in
// monitored lines: a one-write transaction reads the global-lock line, the
// active count, the timestamp and one ring-entry header, and writes its
// datum, the timestamp and that header.
func TestFastCommitMetadataFootprint(t *testing.T) {
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
	if r := rows[0]; r.WriteMax > 3 || r.ReadMax > 4 {
		t.Fatalf("a one-write fast commit monitored %d read and %d write lines, want at most 4 and 3", r.ReadMax, r.WriteMax)
	}
}
