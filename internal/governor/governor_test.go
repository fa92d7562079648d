package governor

import (
	"testing"

	"repro/internal/trace"
)

// run drives one Begin/Finish pair with no hardware abort (helper).
func run(g *Governor, st *State, path uint8) Transition {
	g.Begin(st)
	return g.Finish(st, path)
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	g := New(Config{BreakerThreshold: 3})
	st := g.State(0)

	// Hardware-failed, lock-saved transactions lengthen the streak; the
	// threshold-th one trips the breaker.
	for i := 0; i < 2; i++ {
		g.Begin(st)
		st.NoteHWAbort()
		if tr := g.Finish(st, trace.PathGL); tr != TransNone {
			t.Fatalf("txn %d: transition %v, want none", i, tr)
		}
	}
	g.Begin(st)
	st.NoteHWAbort()
	if tr := g.Finish(st, trace.PathGL); tr != TransTrip {
		t.Fatalf("third failure: transition %v, want trip", tr)
	}
	if !st.Open() {
		t.Fatal("breaker not open after trip")
	}

	// While open: serialize, except every ProbeEvery-th transaction probes.
	var probes, serialized int
	for i := 0; i < 2*ProbeEvery; i++ {
		switch v := g.Begin(st); v {
		case Probe:
			probes++
			// Probe fails: hardware still broken, saved by the lock.
			st.NoteHWAbort()
			if tr := g.Finish(st, trace.PathGL); tr != TransNone {
				t.Fatalf("failed probe: transition %v, want none", tr)
			}
			if !st.Open() {
				t.Fatal("failed probe closed the breaker")
			}
		case Serialize:
			serialized++
			g.Finish(st, trace.PathGL)
		default:
			t.Fatalf("verdict %v while breaker open", v)
		}
	}
	if probes != 2 || serialized != 2*ProbeEvery-2 {
		t.Fatalf("probes=%d serialized=%d, want 2/%d", probes, serialized, 2*ProbeEvery-2)
	}

	// Next probe commits in hardware: the breaker closes.
	for {
		if g.Begin(st) == Probe {
			break
		}
		g.Finish(st, trace.PathGL)
	}
	if tr := g.Finish(st, trace.PathHTM); tr != TransClose {
		t.Fatalf("hardware probe commit: transition %v, want close", tr)
	}
	if st.Open() {
		t.Fatal("breaker still open after close")
	}

	// Closed again: normal admission, streak restarts from zero.
	if v := g.Begin(st); v != Admit {
		t.Fatalf("verdict %v after close, want admit", v)
	}
	g.Finish(st, trace.PathHTM)
}

func TestBreakerIgnoresSoftwareAndCleanLockCommits(t *testing.T) {
	g := New(Config{BreakerThreshold: 2})
	st := g.State(0)

	// Lock commits without hardware evidence: pure contention, no streak.
	for i := 0; i < 10; i++ {
		if tr := run(g, st, trace.PathGL); tr != TransNone {
			t.Fatalf("clean GL commit %d: transition %v", i, tr)
		}
	}
	// Software commits after hardware aborts: partitioned path absorbed the
	// failure; neither trip evidence nor recovery proof.
	for i := 0; i < 10; i++ {
		g.Begin(st)
		st.NoteHWAbort()
		if tr := g.Finish(st, trace.PathSW); tr != TransNone {
			t.Fatalf("SW commit %d: transition %v", i, tr)
		}
	}
	if st.Open() {
		t.Fatal("breaker tripped without lock-saved hardware failures")
	}
	// One failure then a hardware commit: streak resets.
	g.Begin(st)
	st.NoteHWAbort()
	g.Finish(st, trace.PathGL)
	run(g, st, trace.PathHTM)
	g.Begin(st)
	st.NoteHWAbort()
	if tr := g.Finish(st, trace.PathGL); tr != TransNone {
		t.Fatalf("post-reset failure tripped early: %v", tr)
	}
}

func TestBreakerDisabled(t *testing.T) {
	g := New(Config{}) // zero threshold: no breaker
	st := g.State(0)
	for i := 0; i < 100; i++ {
		g.Begin(st)
		st.NoteHWAbort()
		if tr := g.Finish(st, trace.PathGL); tr != TransNone {
			t.Fatalf("disabled breaker produced transition %v", tr)
		}
	}
	if st.Open() {
		t.Fatal("disabled breaker opened")
	}
}

// TestHooksAllocationFree pins the per-transaction hooks allocation-free
// (the -benchmem benchmark shows the same; this fails fast in plain
// `go test`).
func TestHooksAllocationFree(t *testing.T) {
	g := New(Config{BreakerThreshold: 4})
	st := g.State(0)
	allocs := testing.AllocsPerRun(1000, func() {
		g.Begin(st)
		st.NoteHWAbort()
		g.Finish(st, trace.PathGL)
	})
	if allocs != 0 {
		t.Fatalf("governor hooks allocate %v per transaction, want 0", allocs)
	}
}

// TestActiveCountsBeginToFinish pins the in-transaction flag: set by
// Begin, cleared by Finish, summed across threads by Active.
func TestActiveCountsBeginToFinish(t *testing.T) {
	g := New(DefaultConfig())
	a, b := g.State(0), g.State(1)
	if got := g.Active(); got != 0 {
		t.Fatalf("idle governor: active %d, want 0", got)
	}
	g.Begin(a)
	g.Begin(b)
	if got := g.Active(); got != 2 {
		t.Fatalf("two open transactions: active %d, want 2", got)
	}
	g.Finish(a, trace.PathHTM)
	if got := g.Active(); got != 1 {
		t.Fatalf("one finished: active %d, want 1", got)
	}
	g.Finish(b, trace.PathGL)
	if got := g.Active(); got != 0 {
		t.Fatalf("all finished: active %d, want 0", got)
	}
}

func BenchmarkAdmit(b *testing.B) {
	g := New(DefaultConfig())
	st := g.State(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Begin(st)
		g.Finish(st, trace.PathHTM)
	}
}
