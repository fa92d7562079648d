package norec

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

func newSys(threads int) *System {
	return New(mem.New(1<<16), threads)
}

func TestReadYourWrites(t *testing.T) {
	s := newSys(1)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		x.Write(a, 9)
		if got := x.Read(a); got != 9 {
			t.Errorf("read-your-write = %d", got)
		}
	})
	if got := s.Memory().Load(a); got != 9 {
		t.Fatalf("a = %d", got)
	}
}

func TestReadOnlyDoesNotBumpSequence(t *testing.T) {
	s := newSys(1)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) { x.Read(a) })
	if got := s.Memory().Load(s.seq); got != 0 {
		t.Fatalf("sequence = %d after read-only commit", got)
	}
}

func TestWriterBumpsSequenceByTwo(t *testing.T) {
	s := newSys(1)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
	if got := s.Memory().Load(s.seq); got != 2 {
		t.Fatalf("sequence = %d, want 2 (even, one commit)", got)
	}
}

func TestValueBasedValidationToleratesSilentRepeats(t *testing.T) {
	// NOrec's value-based validation admits a writer that rewrote the same
	// value: the reader needs no abort. We can only observe the absence of
	// livelock here: reads concurrent with same-value writers commit fine.
	s := newSys(2)
	a := s.Memory().Alloc(1)
	s.Memory().Store(a, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Atomic(0, func(x tm.Tx) { x.Write(a, 5) })
		}
	}()
	for i := 0; i < 200; i++ {
		var v uint64
		s.Atomic(1, func(x tm.Tx) { v = x.Read(a) })
		if v != 5 {
			t.Fatalf("read %d, want 5", v)
		}
	}
	wg.Wait()
}

func TestAbortsCountedOnConflict(t *testing.T) {
	s := newSys(2)
	a := s.Memory().Alloc(1)
	perthread.Run(2, func(id int) {
		for i := 0; i < 500; i++ {
			s.Atomic(id, func(x tm.Tx) {
				x.Write(a, x.Read(a)+1)
			})
		}
	})
	if got := s.Memory().Load(a); got != 1000 {
		t.Fatalf("counter = %d", got)
	}
	if s.Stats().Snapshot().CommitsSW != 1000 {
		t.Fatalf("commits = %d", s.Stats().Snapshot().CommitsSW)
	}
}

func TestRevalidationAbortsOnChangedValue(t *testing.T) {
	// Reader snapshots a value, a writer changes it, and the reader's next
	// read triggers revalidation, which must abort and retry the reader.
	s := newSys(2)
	m := s.Memory()
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	m.Store(a, 1)

	var once sync.Once
	mid := make(chan struct{})
	goOn := make(chan struct{})
	done := make(chan struct{})
	go func() {
		var va, vb uint64
		s.Atomic(0, func(x tm.Tx) {
			va = x.Read(a)
			if va == 1 {
				once.Do(func() {
					close(mid)
					<-goOn
				})
			}
			vb = x.Read(b)
		})
		// The retry must observe the writer's consistent pair.
		if va != vb {
			t.Errorf("committed with torn snapshot: a=%d b=%d", va, vb)
		}
		close(done)
	}()
	<-mid
	s.Atomic(1, func(x tm.Tx) {
		x.Write(a, 7)
		x.Write(b, 7)
	})
	close(goOn)
	<-done
	if got := s.Stats().Snapshot().AbortsConflict; got == 0 {
		t.Fatal("no abort recorded despite an invalidated snapshot")
	}
}

func TestWritebackIsAtomicToReaders(t *testing.T) {
	s := newSys(2)
	m := s.Memory()
	x0 := m.AllocLines(1)
	y0 := m.AllocLines(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
			t.Fatalf("torn snapshot: %d vs %d", vx, vy)
		}
	}
	close(stop)
	wg.Wait()
}
