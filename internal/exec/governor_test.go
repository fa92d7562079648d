package exec

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abort"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/tm"
	"repro/internal/trace"
)

// breakerTxn builds a Txn whose fast level aborts while broken is set and
// commits otherwise, with a counting slow path.
func breakerTxn(broken *atomic.Bool, fastTries, slowRuns *atomic.Int64) *Txn {
	return &Txn{
		Fast: func() htm.Result {
			fastTries.Add(1)
			if broken.Load() {
				return htm.Result{Reason: abort.Other, Injected: true}
			}
			return htm.Result{Committed: true}
		},
		Slow: func() { slowRuns.Add(1) },
	}
}

// TestGovernorBreakerCycleThroughRunner drives the full trip → open →
// half-open probe → close cycle through Run and checks every counter and
// trace event the kernel records along the way.
func TestGovernorBreakerCycleThroughRunner(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 1}, &st, nil)
	r.SetGovernor(governor.New(governor.Config{BreakerThreshold: 3}))
	sink := trace.NewSink(256)
	r.SetTrace(sink)

	var broken atomic.Bool
	var fastTries, slowRuns atomic.Int64
	txn := breakerTxn(&broken, &fastTries, &slowRuns)

	// Hardware broken: the first 3 transactions each abort in hardware and
	// fall through to the slow path, and the third trips the breaker.
	broken.Store(true)
	for i := 0; i < 3; i++ {
		r.Run(0, txn)
	}
	snap := st.Snapshot()
	if snap.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d after threshold failures, want 1", snap.BreakerTrips)
	}
	if !r.Thread(0).open {
		t.Fatal("breaker not open")
	}
	if fastTries.Load() != 3 {
		t.Fatalf("fast attempts = %d, want 3", fastTries.Load())
	}

	// Open: transactions go direct-to-slow without touching the hardware,
	// except every ProbeEvery-th, which probes (and fails — hardware still
	// broken).
	const open = 2 * governor.ProbeEvery
	for i := 0; i < open; i++ {
		r.Run(0, txn)
	}
	snap = st.Snapshot()
	if snap.BreakerSlow != open-2 {
		t.Fatalf("BreakerSlow = %d, want %d of %d", snap.BreakerSlow, open-2, open)
	}
	if snap.BreakerProbes != 2 {
		t.Fatalf("BreakerProbes = %d, want 2 of %d", snap.BreakerProbes, open)
	}
	if got := fastTries.Load(); got != 5 { // 3 trips + 2 failed probes
		t.Fatalf("fast attempts = %d, want 5 (only probes retry hardware)", got)
	}
	if snap.BreakerCloses != 0 || r.Thread(0).open != true {
		t.Fatal("failed probes must not close the breaker")
	}

	// Hardware recovers: the next probe commits in hardware and closes the
	// breaker; subsequent transactions run the fast path normally again.
	broken.Store(false)
	for i := 0; i < governor.ProbeEvery; i++ {
		r.Run(0, txn)
	}
	snap = st.Snapshot()
	if snap.BreakerCloses != 1 {
		t.Fatalf("BreakerCloses = %d, want 1", snap.BreakerCloses)
	}
	if r.Thread(0).open {
		t.Fatal("breaker still open after hardware recovery")
	}
	before := fastTries.Load()
	for i := 0; i < 5; i++ {
		r.Run(0, txn)
	}
	if got := fastTries.Load() - before; got != 5 {
		t.Fatalf("post-close fast attempts = %d of 5, want all", got)
	}
	if snap.CommitsGL != uint64(slowRuns.Load()) { // every slow run was accounted
		t.Fatalf("CommitsGL = %d, slow runs = %d", snap.CommitsGL, slowRuns.Load())
	}

	// The trace stream carries the breaker edges in order.
	var kinds []trace.Kind
	for _, e := range sink.Events() {
		switch e.Kind {
		case trace.EvBreakerTrip, trace.EvBreakerProbe, trace.EvBreakerClose:
			kinds = append(kinds, e.Kind)
		}
	}
	want := []trace.Kind{
		trace.EvBreakerTrip, trace.EvBreakerProbe, trace.EvBreakerProbe,
		trace.EvBreakerProbe, trace.EvBreakerClose,
	}
	if len(kinds) != len(want) {
		t.Fatalf("breaker events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("breaker events = %v, want %v", kinds, want)
		}
	}
}

// TestGovernorProbeOverridesSkipFast: a half-open probe must retry the
// hardware even when self-tuning set SkipFast — otherwise a system that
// stopped trying the fast path could never close its breaker.
func TestGovernorProbeOverridesSkipFast(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 1}, &st, nil)
	r.SetGovernor(governor.New(governor.Config{BreakerThreshold: 1}))

	var broken atomic.Bool
	var fastTries, slowRuns atomic.Int64
	txn := breakerTxn(&broken, &fastTries, &slowRuns)
	broken.Store(true)
	r.Run(0, txn) // trips immediately (threshold 1)
	if !r.Thread(0).open {
		t.Fatal("breaker not open")
	}

	broken.Store(false)
	txn.SkipFast = true
	for i := 1; i < governor.ProbeEvery; i++ {
		r.Run(0, txn) // serialized: the breaker stays open
	}
	if !r.Thread(0).open {
		t.Fatal("breaker closed before its probe")
	}
	r.Run(0, txn) // the probe must override SkipFast
	if r.Thread(0).open {
		t.Fatal("probe did not run the fast level under SkipFast")
	}
	if st.Snapshot().BreakerCloses != 1 {
		t.Fatal("breaker close not recorded")
	}
}

// TestGovernorPureSTMUnaffected: a transaction with no slow path (the pure
// STMs, NOrecRH) must run its normal schedule even when its thread's
// breaker is open — there is nothing to serialize onto. (Regression: an
// open breaker once called a nil Slow.)
func TestGovernorPureSTMUnaffected(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 1}, &st, nil)
	r.SetGovernor(governor.New(governor.Config{BreakerThreshold: 1}))

	// Trip thread 0's breaker through a transaction that has a slow path.
	var broken atomic.Bool
	var fastTries, slowRuns atomic.Int64
	broken.Store(true)
	r.Run(0, breakerTxn(&broken, &fastTries, &slowRuns))
	if !r.Thread(0).open {
		t.Fatal("breaker not open")
	}

	mid := 0
	r.Run(0, &Txn{Mid: func() bool { mid++; return mid == 3 }})
	snap := st.Snapshot()
	if snap.CommitsSW != 1 || mid != 3 {
		t.Fatalf("mid = %d, snapshot = %+v", mid, snap)
	}
	if snap.BreakerSlow != 0 {
		t.Fatalf("governor serialized a transaction with no slow path: %+v", snap)
	}
}

// TestGovernorActiveWhileParkedInSlow: a worker parked inside its slow path
// moves no stats counter; the kernel's in-transaction flag, kept while a
// governor is attached, is what the watchdog's global-stall alarm and the
// obs inflight gauge see, under the shipped DefaultConfig.
func TestGovernorActiveWhileParkedInSlow(t *testing.T) {
	var st tm.Stats
	r := New(Policy{}, &st, nil)
	r.SetGovernor(governor.New(governor.DefaultConfig()))

	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run(1, &Txn{Slow: func() { close(parked); <-release }})
	}()
	<-parked
	if got := r.Inflight(); got != 1 {
		t.Errorf("active = %d with one worker parked in Slow, want 1", got)
	}
	close(release)
	<-done
	if got := r.Inflight(); got != 0 {
		t.Errorf("active = %d after the transaction finished, want 0", got)
	}
}

// TestGovernorBreakerHammer exercises the breaker cycle from many threads
// concurrently under -race: per-thread breaker state must stay single-
// writer, and every in-transaction flag must end cleared.
func TestGovernorBreakerHammer(t *testing.T) {
	const threads = 8
	const txns = 400
	var st tm.Stats
	r := New(Policy{FastAttempts: 1}, &st, nil)
	r.SetGovernor(governor.New(governor.Config{BreakerThreshold: 2}))

	// Phase 1: hardware broken everywhere — every thread trips. Phase 2:
	// hardware recovered — every thread's probes must close the breaker.
	// The phases are barrier-separated so no thread can finish before the
	// recovery becomes visible to it.
	var broken atomic.Bool
	phase := func() {
		var wg sync.WaitGroup
		for id := 0; id < threads; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				var fastTries, slowRuns atomic.Int64
				txn := breakerTxn(&broken, &fastTries, &slowRuns)
				for i := 0; i < txns; i++ {
					r.Run(id, txn)
				}
			}(id)
		}
		wg.Wait()
	}
	broken.Store(true)
	phase()
	broken.Store(false)
	phase()

	if got := r.Inflight(); got != 0 {
		t.Fatalf("active = %d after quiesce, want 0", got)
	}
	snap := st.Snapshot()
	if snap.Commits() != 2*threads*txns {
		t.Fatalf("commits = %d, want %d (every Run must commit)", snap.Commits(), 2*threads*txns)
	}
	if snap.BreakerTrips == 0 {
		t.Fatal("hammer never tripped a breaker")
	}
	if snap.BreakerCloses == 0 {
		t.Fatal("hammer never closed a breaker after recovery")
	}
	// Every thread's breaker must end closed: hardware recovered long
	// before the run ended and probes re-enable the fast path.
	for id := 0; id < threads; id++ {
		if r.Thread(id).open {
			t.Fatalf("thread %d breaker still open after recovery", id)
		}
	}
}

// TestEscalationRace has many threads concurrently escalate on their
// starvation scores. Run with -race; the assertion is that every
// transaction commits.
func TestEscalationRace(t *testing.T) {
	const threads = 8
	const txns = 300
	var st tm.Stats
	r := New(Policy{
		FastAttempts:    1,
		MidAttempts:     2,
		RetryBudget:     3,
		StarveThreshold: 1, // escalate at the first mid-level abort
	}, &st, nil)

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			txn := &Txn{
				Fast: func() htm.Result { return htm.Result{Reason: abort.Conflict} },
				Mid:  func() bool { return false },
				Slow: func() {},
			}
			for i := 0; i < txns; i++ {
				r.Run(id, txn)
			}
		}(id)
	}
	wg.Wait()

	snap := st.Snapshot()
	if snap.Commits() != threads*txns {
		t.Fatalf("commits = %d, want %d", snap.Commits(), threads*txns)
	}
}
