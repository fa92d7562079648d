package exec

import (
	"testing"
	"time"

	"repro/internal/htm"
	"repro/internal/tm"
)

// TestBackoffShiftClamped: huge attempt numbers must neither overflow the
// shift nor stall; before the clamp, 1<<attempt overflowed time.Duration
// from attempt 63 on.
func TestBackoffShiftClamped(t *testing.T) {
	var st tm.Stats
	r := New(Policy{MaxBackoff: 100 * time.Microsecond}, &st, nil)
	th := r.Thread(0)
	for _, attempt := range []int{0, maxBackoffShift, 63, 64, 1000} {
		start := time.Now()
		r.backoff(th, attempt)
		if el := time.Since(start); el > time.Second {
			t.Fatalf("backoff(%d) took %v", attempt, el)
		}
	}
}

// TestLevelSchedule drives a transaction whose fast level always aborts and
// whose mid level commits on the third attempt, checking the kernel walks
// the levels in order and records every outcome.
func TestLevelSchedule(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 2, MidAttempts: 5}, &st, nil)
	fast, mid := 0, 0
	txn := &Txn{
		Fast: func() htm.Result { fast++; return htm.Result{Reason: htm.Conflict} },
		Mid:  func() bool { mid++; return mid == 3 },
		Slow: func() { t.Fatal("slow path reached despite mid commit") },
	}
	r.Run(0, txn)
	if fast != 2 || mid != 3 {
		t.Fatalf("fast = %d, mid = %d", fast, mid)
	}
	snap := st.Snapshot()
	if snap.CommitsSW != 1 || snap.AbortsConflict != 4 { // 2 fast + 2 mid aborts
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestResourceAbortStopsFast: with StopFastOnResource a capacity abort must
// abandon the remaining fast attempts.
func TestResourceAbortStopsFast(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 5, StopFastOnResource: true}, &st, nil)
	fast := 0
	txn := &Txn{
		Fast: func() htm.Result { fast++; return htm.Result{Reason: htm.Capacity} },
		Slow: func() {},
	}
	r.Run(0, txn)
	if fast != 1 {
		t.Fatalf("fast = %d, want 1", fast)
	}
	snap := st.Snapshot()
	if snap.AbortsCapacity != 1 || snap.CommitsGL != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestSkipFast: a transaction flagged SkipFast must go straight to the mid
// level without touching the policy's fast schedule.
func TestSkipFast(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 5, MidAttempts: 1}, &st, nil)
	txn := &Txn{
		SkipFast: true,
		Fast:     func() htm.Result { t.Fatal("fast level run despite SkipFast"); return htm.Result{} },
		Mid:      func() bool { return true },
		Slow:     func() {},
	}
	r.Run(0, txn)
	if st.Snapshot().CommitsSW != 1 {
		t.Fatalf("snapshot = %+v", st.Snapshot())
	}
}

// TestBudgetEscalates: exhausting the hardware-abort budget must escalate
// to the slow path and record exactly one budget escalation.
func TestBudgetEscalates(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 100, RetryBudget: 3}, &st, nil)
	fast, slow := 0, 0
	txn := &Txn{
		Fast: func() htm.Result { fast++; return htm.Result{Reason: htm.Conflict} },
		Slow: func() { slow++ },
	}
	r.Run(0, txn)
	if fast != 3 || slow != 1 {
		t.Fatalf("fast = %d, slow = %d", fast, slow)
	}
	snap := st.Snapshot()
	if snap.EscalationsBudget != 1 || snap.CommitsGL != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The budget refills per transaction: a second Run burns it again.
	r.Run(0, txn)
	if fast != 6 {
		t.Fatalf("fast = %d after second txn, want 6", fast)
	}
}

// TestLemmingWaitOutlastsGate: a gate that stays closed for k polls holds
// the fast attempt back until it opens, however long that is; the wait
// escalates nothing and the transaction commits in hardware.
func TestLemmingWaitOutlastsGate(t *testing.T) {
	const k = 10000
	var st tm.Stats
	polls := 0
	pol := Policy{FastAttempts: 1}
	pol.LemmingWaitSpins = 8 // deprecated and ignored
	r := New(pol, &st, func() bool { polls++; return polls > k })
	txn := &Txn{
		Fast: func() htm.Result {
			if polls <= k {
				t.Fatalf("fast level ran after %d polls of a gate closed for %d", polls, k)
			}
			return htm.Result{Committed: true}
		},
		Slow: func() { t.Fatal("slow path reached behind a gate that opens") },
	}
	r.Run(0, txn)
	snap := st.Snapshot()
	if snap.CommitsHTM != 1 || snap.Commits() != 1 || snap.Escalations() != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestStarvationEscalates: enough consecutive mid-level aborts must
// serialize the transaction.
func TestStarvationEscalates(t *testing.T) {
	var st tm.Stats
	r := New(Policy{MidAttempts: 100, StarveThreshold: 2}, &st, nil)
	mid := 0
	txn := &Txn{
		Mid:  func() bool { mid++; return false },
		Slow: func() {},
	}
	r.Run(0, txn)
	if mid != 2 {
		t.Fatalf("mid attempts = %d, want exactly StarveThreshold", mid)
	}
	snap := st.Snapshot()
	if snap.EscalationsStarve != 1 || snap.CommitsGL != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestZeroPolicyIsPureSTM: the zero policy must loop the mid level until it
// commits — the pure-STM shape — with no gates and no escalation.
func TestZeroPolicyIsPureSTM(t *testing.T) {
	var st tm.Stats
	r := New(Policy{}, &st, nil)
	mid := 0
	txn := &Txn{
		Mid:  func() bool { mid++; return mid == 50 },
		Slow: func() { t.Fatal("slow path reached in an unbounded mid loop") },
	}
	r.Run(0, txn)
	if mid != 50 {
		t.Fatalf("mid = %d", mid)
	}
	snap := st.Snapshot()
	if snap.CommitsSW != 1 || snap.AbortsConflict != 49 || snap.Escalations() != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestInjectedFaultCounted: NoteHWAbort must count injector-forced aborts.
func TestInjectedFaultCounted(t *testing.T) {
	var st tm.Stats
	r := New(Policy{FastAttempts: 2}, &st, nil)
	first := true
	txn := &Txn{
		Fast: func() htm.Result {
			if first {
				first = false
				return htm.Result{Reason: htm.Other, Injected: true}
			}
			return htm.Result{Committed: true}
		},
		Slow: func() {},
	}
	r.Run(0, txn)
	snap := st.Snapshot()
	if snap.FaultsInjected != 1 || snap.CommitsHTM != 1 || snap.AbortsOther != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
