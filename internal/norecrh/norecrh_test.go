package norecrh

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
	"repro/internal/trace"
)

func newSys(threads int, mut func(*htm.Config)) *System {
	cfg := htm.DefaultConfig()
	cfg.Quantum = 0
	cfg.ReadEvictProb = 0
	if mut != nil {
		mut(&cfg)
	}
	return New(htm.New(mem.New(1<<16), cfg), threads)
}

func TestSmallTxUsesHardware(t *testing.T) {
	s := newSys(1, nil)
	a := s.Memory().Alloc(1)
	for i := 0; i < 10; i++ {
		s.Atomic(0, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	st := s.Stats().Snapshot()
	if st.CommitsHTM != 10 || st.CommitsSW != 0 {
		t.Fatalf("want 10 hardware commits, got %+v", st)
	}
}

func TestHardwareCommitBumpsSequence(t *testing.T) {
	s := newSys(1, nil)
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
	if got := s.Memory().Load(s.seq); got != 2 {
		t.Fatalf("sequence = %d, want 2 (hardware commits must be visible to software validation)", got)
	}
}

func TestResourceFailureUsesSoftwarePathWithReducedCommit(t *testing.T) {
	// The transaction's work exceeds the quantum, so the full-hardware
	// attempt dies; the software path with the small reduced-hardware
	// commit must take over.
	s := newSys(1, func(c *htm.Config) { c.Quantum = 100 })
	a := s.Memory().Alloc(1)
	s.Atomic(0, func(x tm.Tx) {
		x.NonTxWork(500)
		x.Write(a, 3)
	})
	st := s.Stats().Snapshot()
	if st.CommitsSW != 1 {
		t.Fatalf("want software commit, got %+v", st)
	}
	if got := s.Memory().Load(a); got != 3 {
		t.Fatalf("a = %d", got)
	}
	// The reduced hardware commit (2 written lines: data + sequence) fits
	// the quantum? The commit transaction performs few operations, so it
	// must have committed in hardware; the engine therefore recorded at
	// least one hardware commit even though the transaction is counted SW.
	if s.Engine().Stats().Commits.Load() == 0 {
		t.Fatal("reduced hardware commit did not run in hardware")
	}
}

// tinyWriteBuffer leaves room for two written lines, so a six-line
// write-back fits neither the full-hardware attempt nor the reduced commit.
func tinyWriteBuffer(c *htm.Config) {
	c.WriteLines = 2
	c.WriteWays = 64
	c.WriteSets = 1
}

func writeSixLines(s *System, base mem.Addr) {
	s.Atomic(0, func(x tm.Tx) {
		for l := 0; l < 6; l++ {
			x.Write(base+mem.Addr(l*mem.LineWords), uint64(l+1))
		}
	})
}

func TestReducedCommitCapacityFallsBackToLockedWriteback(t *testing.T) {
	// Write set too large even for the reduced commit: the software
	// fallback write-back (CAS on the sequence lock) must complete it.
	s := newSys(1, tinyWriteBuffer)
	m := s.Memory()
	base := m.AllocLines(6)
	writeSixLines(s, base)
	for l := 0; l < 6; l++ {
		if got := m.Load(base + mem.Addr(l*mem.LineWords)); got != uint64(l+1) {
			t.Fatalf("line %d = %d", l, got)
		}
	}
	if s.Stats().Snapshot().CommitsSW != 1 {
		t.Fatalf("want software commit, got %+v", s.Stats().Snapshot())
	}
	if got := m.Load(s.seq); got != 2 {
		t.Fatalf("sequence = %d, want 2", got)
	}
}

// TestReducedCommitAbortReachesKernel: the reduced commit's hardware aborts
// go through the kernel like every other hardware abort, so an attached
// sink sees the capacity abort between the switch to the software path and
// the software commit.
func TestReducedCommitAbortReachesKernel(t *testing.T) {
	s := newSys(1, tinyWriteBuffer)
	sink := trace.NewSink(64)
	s.Kernel().SetTrace(sink)
	writeSixLines(s, s.Memory().AllocLines(6))
	var onSW []trace.Event
	for _, e := range sink.Events() {
		if e.Kind == trace.EvPathPart || len(onSW) > 0 {
			onSW = append(onSW, e)
		}
	}
	if len(onSW) != 3 || onSW[1].Kind != trace.EvHWAbort || onSW[1].Cause != abort.Capacity ||
		onSW[2].Kind != trace.EvCommit || onSW[2].Path != trace.PathSW {
		t.Fatalf("software path events = %+v, want [path-part, hw-abort(capacity), commit(sw)]", onSW)
	}
	if got := sink.Latency().Abort[abort.Capacity].Count; got != 2 {
		t.Fatalf("capacity abort-latency samples = %d, want 2 (full-hardware attempt + reduced commit)", got)
	}
}

func TestMixedHardwareSoftwareCounter(t *testing.T) {
	// Threads alternate between small (hardware) and long (software)
	// increments; the counter must stay exact across the hybrid boundary.
	s := newSys(4, func(c *htm.Config) { c.Quantum = 300 })
	a := s.Memory().Alloc(1)
	const per = 150
	perthread.Run(4, func(id int) {
		for i := 0; i < per; i++ {
			long := i%2 == 0
			s.Atomic(id, func(x tm.Tx) {
				if long {
					x.NonTxWork(1000)
				}
				x.Write(a, x.Read(a)+1)
			})
		}
	})
	if got := s.Memory().Load(a); got != 4*per {
		t.Fatalf("counter = %d, want %d", got, 4*per)
	}
	st := s.Stats().Snapshot()
	if st.CommitsHTM == 0 || st.CommitsSW == 0 {
		t.Fatalf("expected both paths to be exercised, got %+v", st)
	}
}
