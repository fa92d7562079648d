package ringstm

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/sig"
	"repro/internal/tm"
)

func newSys(threads, ringSize int) *System {
	return New(mem.New(1<<17), threads, ringSize)
}

func TestReadYourWrites(t *testing.T) {
	s := newSys(1, 64)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		x.Write(a, 3)
		if got := x.Read(a); got != 3 {
			t.Errorf("read-your-write = %d", got)
		}
	})
}

func TestWriterJoinsRing(t *testing.T) {
	s := newSys(1, 64)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
	if ts := s.r.Timestamp(); ts != 1 {
		t.Fatalf("ring timestamp = %d, want 1", ts)
	}
	s.Atomic(0, func(x tm.Tx) { x.Read(a) })
	if ts := s.r.Timestamp(); ts != 1 {
		t.Fatalf("read-only transaction joined the ring: ts = %d", ts)
	}
}

func TestSmallRingStillCorrect(t *testing.T) {
	// With a tiny ring, rollover forces extra aborts but must never lose
	// updates.
	s := newSys(4, 4)
	a := s.Memory().Alloc(1)
	const per = 200
	perthread.Run(4, func(id int) {
		for i := 0; i < per; i++ {
			s.Atomic(id, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
		}
	})
	if got := s.Memory().Load(a); got != 4*per {
		t.Fatalf("counter = %d, want %d", got, 4*per)
	}
}

func TestSnapshotConsistencyAcrossLines(t *testing.T) {
	s := newSys(4, 1024)
	m := s.Memory()
	x0 := m.AllocLines(1)
	y0 := m.AllocLines(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Atomic(0, func(x tm.Tx) {
				x.Write(x0, i)
				x.Write(y0, i)
			})
		}
	}()
	for i := 0; i < 300; i++ {
		var vx, vy uint64
		s.Atomic(1, func(x tm.Tx) {
			vx = x.Read(x0)
			vy = x.Read(y0)
		})
		if vx != vy {
			t.Fatalf("snapshot torn: x=%d y=%d", vx, vy)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCommitWaitsForPreviousWriteback pins the ordering ring.WaitDone's
// later-generation rule rests on: a committer claims ts+1 only after ts's
// write-back is done. Timestamp 1 is claimed and published by hand, its
// write-back left open; a writer that began at snapshot 0 must not commit
// until SetDone(1) runs.
func TestCommitWaitsForPreviousWriteback(t *testing.T) {
	s := newSys(2, 64)
	a := s.Memory().Alloc(1)
	began, claimed := make(chan struct{}), make(chan struct{})
	committed := make(chan struct{})
	var first sync.Once
	go func() {
		defer close(committed)
		s.Atomic(1, func(x tm.Tx) {
			first.Do(func() {
				close(began)
				<-claimed
			})
			x.Write(a, 7)
		})
	}()
	<-began // the writer's snapshot is timestamp 0
	if !s.Memory().CAS(s.r.TimestampAddr(), 0, 1) {
		t.Fatal("could not claim timestamp 1")
	}
	var empty sig.Signature
	s.r.PublishSW(1, &empty)
	close(claimed)

	select {
	case <-committed:
		t.Fatal("writer committed while timestamp 1's write-back was open")
	case <-time.After(30 * time.Millisecond):
	}
	if ts := s.r.Timestamp(); ts != 1 {
		t.Fatalf("writer claimed past an open write-back: timestamp %d", ts)
	}
	s.r.SetDone(1)
	select {
	case <-committed:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never committed after SetDone(1)")
	}
	if got, ts := s.Memory().Load(a), s.r.Timestamp(); got != 7 || ts != 2 {
		t.Fatalf("after SetDone(1): value %d at timestamp %d, want 7 at 2", got, ts)
	}
}
