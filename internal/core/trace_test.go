package core

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/trace"
)

func countKind(evs []trace.Event, k trace.Kind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestTraceProtocolEvents runs a partitioned transaction under tracing and
// checks Part-HTM's protocol events appear: sub-HTM begin/commit pairs,
// write-lock acquire/release, and the ring publication of the global
// commit.
func TestTraceProtocolEvents(t *testing.T) {
	s := newSystem(1, 1<<17, func(c *htm.Config) {
		c.WriteLines = 10
		c.WriteWays = 64
		c.WriteSets = 1
	}, nil)
	sink := trace.NewSink(512)
	s.Kernel().SetTrace(sink)
	m := s.Memory()
	base := m.AllocLines(12)
	s.Atomic(0, func(x tm.Tx) {
		for l := 0; l < 12; l++ {
			x.Write(base+mem.Addr(l*mem.LineWords), uint64(l+1))
			if l%3 == 2 {
				x.Pause()
			}
		}
	})
	st := s.Stats().Snapshot()
	if st.CommitsSW != 1 {
		t.Fatalf("want a partitioned commit, got %+v", st)
	}

	evs := sink.Events()
	subBegin := countKind(evs, trace.EvSubBegin)
	subCommit := countKind(evs, trace.EvSubCommit)
	if subCommit < 4 {
		t.Fatalf("sub-HTM commits traced = %d, want >= 4 (one per segment): %v", subCommit, evs)
	}
	if subBegin < subCommit {
		t.Fatalf("sub begins (%d) < sub commits (%d)", subBegin, subCommit)
	}
	if countKind(evs, trace.EvLockAcq) != subCommit {
		t.Fatalf("lock acquisitions = %d, want one per writing sub commit (%d)",
			countKind(evs, trace.EvLockAcq), subCommit)
	}
	if countKind(evs, trace.EvRingPub) != 1 {
		t.Fatalf("ring publications = %d, want 1", countKind(evs, trace.EvRingPub))
	}
	if countKind(evs, trace.EvLockRel) != 1 {
		t.Fatalf("lock releases = %d, want 1", countKind(evs, trace.EvLockRel))
	}
	if countKind(evs, trace.EvCommit) != 1 || countKind(evs, trace.EvBegin) != 1 {
		t.Fatalf("begin/commit events: %v", evs)
	}
	lat := sink.Latency()
	if lat.Path[trace.PathSW].Count != 1 {
		t.Fatalf("SW commit latency count = %d, want 1", lat.Path[trace.PathSW].Count)
	}
}

// TestTraceFastPathRingPub: a writing fast-path commit publishes to the ring,
// and records the publication after the window closes, only while a
// partitioned transaction may validate against it. With none running it
// records no EvRingPub and leaves the timestamp alone.
func TestTraceFastPathRingPub(t *testing.T) {
	for _, tc := range []struct {
		name        string
		partitioned bool
		want        int
	}{
		{"idle", false, 0},
		{"partitioned active", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(2, 1<<17, nil, nil)
			m := s.Memory()
			a, lockedAddr := m.AllocLines(1), m.AllocLines(1)
			var release func() bool
			if tc.partitioned {
				release = parkPartitioned(t, s, 1, lockedAddr, 7)
			}
			sink := trace.NewSink(64)
			s.Kernel().SetTrace(sink)
			ts0 := s.doms.Ring(0).Timestamp()
			s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
			if got := s.doms.Ring(0).Timestamp() - ts0; got != uint64(tc.want) {
				t.Errorf("the fast commit advanced the timestamp by %d, want %d", got, tc.want)
			}
			evs := sink.Events()
			if countKind(evs, trace.EvRingPub) != tc.want {
				t.Errorf("ring publications = %d, want %d: %v", countKind(evs, trace.EvRingPub), tc.want, evs)
			}
			if evs[len(evs)-1].Kind != trace.EvCommit || evs[len(evs)-1].Path != trace.PathHTM {
				t.Errorf("last event = %v, want HTM commit", evs[len(evs)-1])
			}
			if release != nil && !release() {
				t.Fatal("the parked partitioned attempt did not commit")
			}
		})
	}
}
