// Testdata for the htmregion analyzer.
package htmregion

import (
	"fmt"
	"sync"
	"time"

	"htmregion/sub"

	"repro/internal/domain"
	"repro/internal/governor"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/trace"
)

var mu sync.Mutex

var results chan uint64

// good: allocation hoisted before the window, logging after it closes.
func disciplined(eng *htm.Engine, slot int) {
	buf := make([]uint64, 8)
	res := eng.Execute(slot, func(t *htm.Txn) {
		buf[0] = t.Read(0)
		t.Write(1, buf[0])
	})
	if res.Committed {
		fmt.Println("committed")
	}
}

// bad: forbidden operations inside an Execute body.
func sloppy(eng *htm.Engine, slot int) {
	eng.Execute(slot, func(t *htm.Txn) {
		buf := make([]uint64, 8) // want `make inside a hardware-transaction window`
		_ = buf
		fmt.Println(t.Read(0)) // want `fmt.Println inside a hardware-transaction window`
		mu.Lock()              // want `sync primitive .Mutex.Lock.`
		mu.Unlock()            // want `sync primitive .Mutex.Unlock.`
		results <- t.Read(1)   // want `channel send inside a hardware-transaction window`
	})
}

// bad: a Begin window runs until the first Commit/Cancel.
func window(eng *htm.Engine, slot int) time.Time {
	ht := eng.Begin(slot)
	start := time.Now() // want `time.Now inside a hardware-transaction window`
	ht.Write(0, 1)
	ht.Commit()
	end := time.Now() // after the window closes, anything goes
	_ = start
	return end
}

// helper is reached from a window below: the call-graph walk flags its
// body even though helper itself mentions no htm type.
func helper(vals []uint64) []uint64 {
	return append(vals, 1) // want `append inside a hardware-transaction window`
}

func callsHelper(eng *htm.Engine, slot int) {
	eng.Execute(slot, func(t *htm.Txn) {
		helper(nil)
	})
}

// bad: the walk crosses package boundaries — sub.Scratch's allocation is
// flagged in sub's own file, and sub.Stamp's clock read is vouched for by
// the hatch next to it there.
func callsAcross(eng *htm.Engine, slot int) {
	eng.Execute(slot, func(t *htm.Txn) {
		_ = sub.Scratch(4)
		_ = sub.Stamp()
		t.Write(0, 1)
	})
}

type node struct{ next *node }

// bad: any function taking *htm.Txn is window code.
func onTxn(t *htm.Txn, n *node) {
	t.Write(0, 1)
	p := &node{next: n} // want `heap allocation .&composite literal.`
	_ = p
}

// good: deferred work runs after the window; annotated operations are
// vouched for by a human.
func escapes(eng *htm.Engine, slot int) {
	eng.Execute(slot, func(t *htm.Txn) {
		defer fmt.Println("after commit")
		time.Sleep(0) // parthtm:htmsafe — simulator-only pacing
		t.Work(10)
	})
}

// good: the tracing fast path — Record/RecordMark with a timestamp
// captured before the window opens — is htmsafe by construction.
func traced(eng *htm.Engine, slot int, buf *trace.Buffer) {
	ts := trace.Now()
	eng.Execute(slot, func(t *htm.Txn) {
		t.Write(0, 1)
		buf.Record(ts, trace.EvBegin, 1, 0, 0, 0)
		buf.RecordMark(ts, trace.EvRingPub, 0)
	})
}

// good: the kernel pattern — admission decided before the window opens,
// breaker evidence recorded and the scope closed after it.
func kernelPattern(eng *htm.Engine, slot int, gov *governor.Governor, st *governor.State) {
	if gov.Begin(st) == governor.Serialize {
		return
	}
	res := eng.Execute(slot, func(t *htm.Txn) {
		t.Write(0, 1)
	})
	if !res.Committed {
		st.NoteHWAbort()
	}
	gov.Finish(st, 0)
}

// bad: admission hooks run at the kernel boundary, never inside a window.
func selfGoverned(eng *htm.Engine, slot int, gov *governor.Governor, st *governor.State) {
	eng.Execute(slot, func(t *htm.Txn) {
		if gov.Begin(st) == governor.Serialize { // want `governor.Begin inside a hardware-transaction window`
			return
		}
		t.Write(0, 1)
		st.NoteHWAbort() // want `governor.NoteHWAbort inside a hardware-transaction window`
	})
	ht := eng.Begin(slot)
	ht.Write(0, 1)
	gov.Finish(st, 0) // want `governor.Finish inside a hardware-transaction window`
	ht.Commit()
}

// bad: every other trace helper is off-limits inside a window — Now reads
// the clock, Sink methods lock and allocate.
func tracedSloppy(eng *htm.Engine, slot int, buf *trace.Buffer, sink *trace.Sink) {
	eng.Execute(slot, func(t *htm.Txn) {
		buf.Record(trace.Now(), trace.EvBegin, 1, 0, 0, 0) // want `trace.Now inside a hardware-transaction window`
		sink.Mark("in-window")                             // want `trace.Mark inside a hardware-transaction window`
		t.Write(0, 1)
	})
}

// good: the profiler's record hooks — like trace.Buffer.Record — are
// htmsafe by construction; the shard pointer was cached before the window.
func profiled(eng *htm.Engine, slot int, ps *prof.Shard) {
	eng.Execute(slot, func(t *htm.Txn) {
		t.Write(0, 1)
		ps.RecordConflict(7)
		ps.RecordCapacity(7)
		ps.RecordFootprint(0, 1, 2, 1, 1)
	})
}

// bad: every other prof entry point locks or allocates (the merged
// queries).
func profSloppy(eng *htm.Engine, slot int, p *prof.Profile) {
	eng.Execute(slot, func(t *htm.Txn) {
		sh := p.Shard(slot) // want `prof.Shard inside a hardware-transaction window`
		sh.RecordConflict(1)
		_ = p.TopK(4) // want `prof.TopK inside a hardware-transaction window`
		t.Write(0, 1)
	})
}

// good: the domain topology accessors are pure reads of immutable routing
// state, and TxnState bookkeeping touches only the calling thread's masks.
func domainAccessors(eng *htm.Engine, slot int, ds *domain.Domains, st *domain.TxnState) {
	eng.Execute(slot, func(t *htm.Txn) {
		d := ds.Of(7)
		_ = ds.N()
		_ = ds.Ring(d)
		t.Write(uint32(ds.Wlocks(d)), 1)
		_ = st.Count()
		_ = st.Shard()
	})
}

// bad: the cross-domain software-commit helpers spin, CAS shared metadata,
// or publish ring entries — none of that may run inside a window.
func domainCommitInWindow(eng *htm.Engine, slot int, ds *domain.Domains, st *domain.TxnState, sig *domain.Signature) {
	eng.Execute(slot, func(t *htm.Txn) {
		var start uint64
		ts, _, _ := ds.ClaimTimestamp(0, sig, &start) // want `domain.ClaimTimestamp inside a hardware-transaction window`
		ds.Publish(0, ts, sig)                        // want `domain.Publish inside a hardware-transaction window`
		ds.ReleaseWlocks(0, sig)                      // want `domain.ReleaseWlocks inside a hardware-transaction window`
		t.Write(0, 1)
	})
}

// bad: the same rule applies in a Begin window and to the remaining
// helpers — snapshotting, validation, and allocation are software-path
// work.
func domainSetupInWindow(eng *htm.Engine, slot int, ds *domain.Domains, st *domain.TxnState) {
	var starts [4]uint64
	ht := eng.Begin(slot)
	ds.SnapshotTimestamps(starts[:]) // want `domain.SnapshotTimestamps inside a hardware-transaction window`
	_, _ = ds.Validate(st)           // want `domain.Validate inside a hardware-transaction window`
	_ = ds.AllocLinesIn(1, 4)        // want `domain.AllocLinesIn inside a hardware-transaction window`
	ht.Commit()
}

// good: telemetry sources are registered at the harness boundary, before
// any window opens; the scrape loop samples from its own goroutine.
func observed(eng *htm.Engine, slot int, reg *obs.Registry) {
	reg.Register("sys", obs.Source{})
	eng.Execute(slot, func(t *htm.Txn) {
		t.Write(0, t.Read(0)+1)
	})
	var snap obs.Snapshot
	reg.Sample(&snap)
}

// bad: the telemetry plane has no htmsafe surface — registration locks
// and sampling merges histograms across every shard.
func observeInWindow(eng *htm.Engine, slot int, reg *obs.Registry) {
	eng.Execute(slot, func(t *htm.Txn) {
		reg.Register("sys", obs.Source{}) // want `obs.Register inside a hardware-transaction window`
		var snap obs.Snapshot
		reg.Sample(&snap) // want `obs.Sample inside a hardware-transaction window`
		_ = reg.Len()     // want `obs.Len inside a hardware-transaction window`
		t.Write(0, 1)
	})
}
