// Testdata for the htmregion analyzer.
package htmregion

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis/testdata/src/htmregion/sub"
	"repro/internal/domain"
	"repro/internal/htm"
	"repro/internal/sig"
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

// good: the domain topology accessors are pure reads of immutable routing
// state, and TxnState bookkeeping touches only the calling thread's masks.
func domainAccessors(eng *htm.Engine, slot int, ds *domain.Domains, st *domain.TxnState) {
	eng.Execute(slot, func(t *htm.Txn) {
		d := ds.Of(7)
		_ = ds.N()
		_ = ds.Ring(d)
		t.Write(ds.Wlocks(d), 1)
		_ = st.Count()
		_ = st.Shard()
	})
}

// bad: the cross-domain software-commit helpers spin, CAS shared metadata,
// or publish ring entries — none of that may run inside a window.
func domainCommitInWindow(eng *htm.Engine, slot int, ds *domain.Domains, st *domain.TxnState, ws *sig.Signature) {
	eng.Execute(slot, func(t *htm.Txn) {
		var start uint64
		ts, _, _ := ds.ClaimTimestamp(0, ws, &start) // want `domain.ClaimTimestamp inside a hardware-transaction window`
		ds.Publish(0, ts, ws)                        // want `domain.Publish inside a hardware-transaction window`
		ds.ReleaseWlocks(0, ws)                      // want `domain.ReleaseWlocks inside a hardware-transaction window`
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
