package exec

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/htm"
	"repro/internal/tm"
	"repro/internal/trace"
)

func kinds(evs []trace.Event) []trace.Kind {
	out := make([]trace.Kind, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

func countKind(evs []trace.Event, k trace.Kind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestTraceLifecycle drives a transaction through every level — two fast
// aborts, two mid aborts, a mid commit — and checks the recorded event
// stream and latency histograms.
func TestTraceLifecycle(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 2, MidAttempts: 5}, &st, nil)
	sink := trace.NewSink(256)
	r.SetTrace(sink)
	mid := 0
	txn := &Txn{
		Fast: func() htm.Result { return htm.Result{Reason: abort.Conflict} },
		Mid:  func() bool { mid++; return mid == 3 },
		Slow: func() { t.Fatal("slow path reached") },
	}
	r.Run(0, txn)

	evs := sink.Events()
	if countKind(evs, trace.EvBegin) != 1 || countKind(evs, trace.EvCommit) != 1 {
		t.Fatalf("events: %v", kinds(evs))
	}
	if countKind(evs, trace.EvHWAbort) != 2 || countKind(evs, trace.EvSWAbort) != 2 {
		t.Fatalf("aborts: %v", kinds(evs))
	}
	if countKind(evs, trace.EvPathFast) != 1 || countKind(evs, trace.EvPathPart) != 1 {
		t.Fatalf("path transitions: %v", kinds(evs))
	}
	// Event ordering: begin first, commit last, fast level before mid.
	if evs[0].Kind != trace.EvBegin || evs[len(evs)-1].Kind != trace.EvCommit {
		t.Fatalf("begin/commit not bracketing: %v", kinds(evs))
	}
	if evs[len(evs)-1].Path != trace.PathSW {
		t.Fatalf("commit path = %d, want PathSW", evs[len(evs)-1].Path)
	}
	// All events of the run share one transaction ID.
	id := evs[0].ID
	if id == 0 {
		t.Fatal("transaction ID must be nonzero")
	}
	for _, e := range evs {
		if e.ID != id {
			t.Fatalf("event %s has ID %#x, want %#x", e.Kind, e.ID, id)
		}
	}

	lat := sink.Latency()
	if lat.Path[trace.PathSW].Count != 1 {
		t.Fatalf("SW commit latency count = %d, want 1", lat.Path[trace.PathSW].Count)
	}
	if lat.Path[trace.PathHTM].Count != 0 || lat.Path[trace.PathGL].Count != 0 {
		t.Fatal("no HTM/GL commits happened; their histograms must be empty")
	}
	// 2 HW conflict aborts + 2 SW aborts all land under the conflict cause.
	if lat.Abort[abort.Conflict].Count != 4 {
		t.Fatalf("conflict abort latency count = %d, want 4", lat.Abort[abort.Conflict].Count)
	}
}

// TestTraceHTMAndSlowPaths checks the two other commit paths and the
// capacity-cause histogram.
func TestTraceHTMAndSlowPaths(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 2, StopFastOnResource: true}, &st, nil)
	sink := trace.NewSink(256)
	r.SetTrace(sink)

	r.Run(0, &Txn{
		Fast: func() htm.Result { return htm.Result{Committed: true} },
		Slow: func() { t.Fatal("slow reached on committing fast") },
	})
	// Second transaction: capacity abort ends the fast level, no mid →
	// slow path.
	r.Run(0, &Txn{
		Fast: func() htm.Result { return htm.Result{Reason: abort.Capacity} },
		Slow: func() {},
	})

	evs := sink.Events()
	if countKind(evs, trace.EvPathSlow) != 1 {
		t.Fatalf("slow transitions: %v", kinds(evs))
	}
	lat := sink.Latency()
	if lat.Path[trace.PathHTM].Count != 1 || lat.Path[trace.PathGL].Count != 1 {
		t.Fatalf("path counts = %+v", lat.Path)
	}
	if lat.Abort[abort.Capacity].Count != 1 {
		t.Fatalf("capacity abort count = %d, want 1", lat.Abort[abort.Capacity].Count)
	}
	// The two transactions have distinct IDs on one thread.
	var ids = map[uint64]bool{}
	for _, e := range evs {
		if e.Kind == trace.EvBegin {
			ids[e.ID] = true
		}
	}
	if len(ids) != 2 {
		t.Fatalf("distinct tx IDs = %d, want 2", len(ids))
	}
}

// TestTraceEscalation checks the escalation event and its kind argument.
func TestTraceEscalation(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 1, RetryBudget: 1}, &st, nil)
	sink := trace.NewSink(256)
	r.SetTrace(sink)

	// Budget escalation: one fast abort exhausts the budget of 1.
	r.Run(0, &Txn{
		Fast: func() htm.Result { return htm.Result{Reason: abort.Conflict} },
		Slow: func() {},
	})
	evs := sink.Events()
	found := false
	for _, e := range evs {
		if e.Kind == trace.EvEscalate {
			found = true
			if e.Arg != uint64(escBudget) {
				t.Fatalf("escalation arg = %d, want budget (%d)", e.Arg, escBudget)
			}
		}
	}
	if !found {
		t.Fatalf("no escalation event: %v", kinds(evs))
	}
}

// TestTraceDetachStopsRecording: SetTrace(nil) must restore the untraced
// fast path.
func TestTraceDetachStopsRecording(t *testing.T) {
	var st tm.Stats
	r := New(Policy{}, &st, nil)
	sink := trace.NewSink(64)
	r.SetTrace(sink)
	r.Run(0, &Txn{Mid: func() bool { return true }})
	n := len(sink.Events())
	if n == 0 {
		t.Fatal("tracing attached but nothing recorded")
	}
	r.SetTrace(nil)
	r.Run(0, &Txn{Mid: func() bool { return true }})
	if len(sink.Events()) != n {
		t.Fatal("events recorded after detach")
	}
	if r.TraceSink() != nil {
		t.Fatal("TraceSink must be nil after detach")
	}
}

// TestTraceLemmingEvents: a blocked gate must record enter/exit, the exit
// with argument 0.
func TestTraceLemmingEvents(t *testing.T) {
	var st tm.Stats
	open, polls := false, 0
	r := New(Policy{FastAttempts: 1}, &st, nil)
	r.gateFree = func() bool { polls++; return open || polls > 8 }
	sink := trace.NewSink(64)
	r.SetTrace(sink)
	r.Run(0, &Txn{
		Fast: func() htm.Result { return htm.Result{Committed: true} },
		Slow: func() {},
	})
	evs := sink.Events()
	if countKind(evs, trace.EvLemmingEnter) != 1 {
		t.Fatalf("lemming enter: %v", kinds(evs))
	}
	exitOK := false
	for _, e := range evs {
		if e.Kind == trace.EvLemmingExit {
			exitOK = true
			if e.Arg != 0 {
				t.Fatalf("lemming exit arg = %d, want 0", e.Arg)
			}
		}
	}
	if !exitOK {
		t.Fatalf("no lemming exit: %v", kinds(evs))
	}

	// Open gate: the common case records nothing.
	open = true
	before := len(sink.Events())
	r.Run(0, &Txn{
		Fast: func() htm.Result { return htm.Result{Committed: true} },
		Slow: func() {},
	})
	for _, e := range sink.Events()[before:] {
		if e.Kind == trace.EvLemmingEnter || e.Kind == trace.EvLemmingExit {
			t.Fatal("open gate must record no lemming events")
		}
	}
}

// TestTraceBackfillsExistingThreads: threads created before SetTrace (the
// core package pre-creates them in New) must still get buffers.
func TestTraceBackfillsExistingThreads(t *testing.T) {
	var st tm.Stats
	r := New(Policy{}, &st, nil)
	_ = r.Thread(0)
	_ = r.Thread(3)
	sink := trace.NewSink(64)
	r.SetTrace(sink)
	r.Run(3, &Txn{Mid: func() bool { return true }})
	found := false
	for _, e := range sink.Events() {
		if e.Thread == 3 && e.Kind == trace.EvCommit {
			found = true
		}
	}
	if !found {
		t.Fatal("pre-created thread recorded nothing after SetTrace")
	}
}
