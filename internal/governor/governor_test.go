package governor_test

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/exec"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/tm"
)

// The breaker runs inside exec's contention manager; these tests drive it
// through an exec.Runner, one transaction at a time on thread 0, with a
// transaction shape per final path.
var (
	hwAbort = func() htm.Result { return htm.Result{Reason: abort.Other} }
	// failedGL suffers a hardware abort and is saved by the global lock.
	failedGL = &exec.Txn{Fast: hwAbort, Slow: func() {}}
	// cleanGL commits under the lock without a hardware abort.
	cleanGL = &exec.Txn{Slow: func() {}}
	// failedSW suffers a hardware abort and commits in software.
	failedSW = &exec.Txn{Fast: hwAbort, Mid: func() bool { return true }, Slow: func() {}}
	// hwCommit commits in hardware whenever its fast level runs.
	hwCommit = &exec.Txn{Fast: func() htm.Result { return htm.Result{Committed: true} }, Slow: func() {}}
)

// kernel is one governed runner with a single fast attempt.
type kernel struct {
	r     *exec.Runner
	stats *tm.Stats
}

func newKernel(cfg governor.Config) *kernel {
	k := &kernel{stats: new(tm.Stats)}
	k.r = exec.New(exec.Policy{FastAttempts: 1}, k.stats, nil)
	k.r.SetGovernor(governor.New(cfg))
	return k
}

// step runs one transaction and returns the counters it moved: a
// BreakerProbes of 1 is a probe, a BreakerSlow of 1 a serialized
// transaction, BreakerTrips and BreakerCloses its breaker edge.
func (k *kernel) step(txn *exec.Txn) tm.Snapshot {
	before := k.stats.Snapshot()
	k.r.Run(0, txn)
	return k.stats.Snapshot().Delta(before)
}

// open reports whether thread 0's breaker is open: it has tripped once
// more than it has closed.
func (k *kernel) open() bool {
	s := k.stats.Snapshot()
	return s.BreakerTrips > s.BreakerCloses
}

// edge reports a step's breaker transition.
func edge(d tm.Snapshot) string {
	switch {
	case d.BreakerTrips > 0:
		return "trip"
	case d.BreakerCloses > 0:
		return "close"
	}
	return "none"
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	k := newKernel(governor.Config{BreakerThreshold: 3})

	// Hardware-failed, lock-saved transactions lengthen the streak; the
	// threshold-th one trips the breaker.
	for i := 0; i < 2; i++ {
		if tr := edge(k.step(failedGL)); tr != "none" {
			t.Fatalf("txn %d: transition %v, want none", i, tr)
		}
	}
	if tr := edge(k.step(failedGL)); tr != "trip" {
		t.Fatalf("third failure: transition %v, want trip", tr)
	}
	if !k.open() {
		t.Fatal("breaker not open after trip")
	}

	// While open: serialize, except every ProbeEvery-th transaction probes.
	// A probe fails: hardware still broken, saved by the lock.
	var probes, serialized int
	for i := 0; i < 2*governor.ProbeEvery; i++ {
		switch d := k.step(failedGL); {
		case d.BreakerProbes == 1:
			probes++
			if tr := edge(d); tr != "none" {
				t.Fatalf("failed probe: transition %v, want none", tr)
			}
			if !k.open() {
				t.Fatal("failed probe closed the breaker")
			}
		case d.BreakerSlow == 1:
			serialized++
		default:
			t.Fatalf("transaction admitted while breaker open: %+v", d)
		}
	}
	if probes != 2 || serialized != 2*governor.ProbeEvery-2 {
		t.Fatalf("probes=%d serialized=%d, want 2/%d", probes, serialized, 2*governor.ProbeEvery-2)
	}

	// Next probe commits in hardware: the breaker closes.
	d := k.step(hwCommit)
	for d.BreakerProbes == 0 {
		d = k.step(hwCommit)
	}
	if tr := edge(d); tr != "close" {
		t.Fatalf("hardware probe commit: transition %v, want close", tr)
	}
	if k.open() {
		t.Fatal("breaker still open after close")
	}

	// Closed again: normal admission.
	if d := k.step(hwCommit); d.BreakerProbes != 0 || d.BreakerSlow != 0 || d.CommitsHTM != 1 {
		t.Fatalf("after close: %+v, want an admitted hardware commit", d)
	}
}

func TestBreakerIgnoresSoftwareAndCleanLockCommits(t *testing.T) {
	k := newKernel(governor.Config{BreakerThreshold: 2})

	// Lock commits without hardware evidence: pure contention, no streak.
	for i := 0; i < 10; i++ {
		if tr := edge(k.step(cleanGL)); tr != "none" {
			t.Fatalf("clean GL commit %d: transition %v", i, tr)
		}
	}
	// Software commits after hardware aborts: partitioned path absorbed the
	// failure; neither trip evidence nor recovery proof.
	for i := 0; i < 10; i++ {
		if tr := edge(k.step(failedSW)); tr != "none" {
			t.Fatalf("SW commit %d: transition %v", i, tr)
		}
	}
	if k.open() {
		t.Fatal("breaker tripped without lock-saved hardware failures")
	}
	// One failure then a hardware commit: streak resets.
	k.step(failedGL)
	k.step(hwCommit)
	if tr := edge(k.step(failedGL)); tr != "none" {
		t.Fatalf("post-reset failure tripped early: %v", tr)
	}
}

func TestBreakerDisabled(t *testing.T) {
	k := newKernel(governor.Config{}) // zero threshold: no breaker
	for i := 0; i < 100; i++ {
		if tr := edge(k.step(failedGL)); tr != "none" {
			t.Fatalf("disabled breaker produced transition %v", tr)
		}
	}
	if k.open() {
		t.Fatal("disabled breaker opened")
	}
}

// TestHooksAllocationFree pins Run allocation-free with a governor
// attached, through every breaker edge: the transactions trip the breaker,
// serialize and probe (the -benchmem benchmark shows the same; this fails
// fast in plain `go test`).
func TestHooksAllocationFree(t *testing.T) {
	k := newKernel(governor.Config{BreakerThreshold: 4})
	allocs := testing.AllocsPerRun(1000, func() { k.r.Run(0, failedGL) })
	if allocs != 0 {
		t.Fatalf("governed Run allocates %v per transaction, want 0", allocs)
	}
	if s := k.stats.Snapshot(); s.BreakerTrips == 0 || s.BreakerProbes == 0 || s.BreakerSlow == 0 {
		t.Fatalf("the runs missed a breaker edge: %+v", s)
	}
}

// TestActiveCountsBeginToFinish pins the in-transaction flag: set for the
// length of Run while a governor is attached, summed across threads by
// Runner.Inflight.
func TestActiveCountsBeginToFinish(t *testing.T) {
	k := newKernel(governor.DefaultConfig())
	if got := k.r.Inflight(); got != 0 {
		t.Fatalf("idle kernel: inflight %d, want 0", got)
	}
	// Two transactions parked in their slow paths.
	var parked, release, done [2]chan struct{}
	for id := range parked {
		parked[id], release[id], done[id] = make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done[id])
			k.r.Run(id, &exec.Txn{Slow: func() { close(parked[id]); <-release[id] }})
		}()
		<-parked[id]
	}
	if got := k.r.Inflight(); got != 2 {
		t.Fatalf("two open transactions: inflight %d, want 2", got)
	}
	close(release[0])
	<-done[0]
	if got := k.r.Inflight(); got != 1 {
		t.Fatalf("one finished: inflight %d, want 1", got)
	}
	close(release[1])
	<-done[1]
	if got := k.r.Inflight(); got != 0 {
		t.Fatalf("all finished: inflight %d, want 0", got)
	}
}

func BenchmarkAdmit(b *testing.B) {
	k := newKernel(governor.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.r.Run(0, hwCommit)
	}
}
