package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// TestReadersNeverCommitATornSnapshot hammers the lock-free read monitor.
// Hardware readers read flag, x and y, each on its own line, while a writer
// updates them, and abort when they see the flag raised; a reader that
// commits must have seen flag 0 and x == y. The non-transactional writer
// raises the flag around its stores, so every store must doom a reader
// registered before it. The hardware writer stores x and y in one commit, so
// no reader may register on a line the commit has released but not yet
// stored.
func TestReadersNeverCommitATornSnapshot(t *testing.T) {
	writers := []struct {
		name  string
		write func(e *Engine, flag, x, y mem.Addr, i uint64)
	}{
		{"non-transactional", func(e *Engine, flag, x, y mem.Addr, i uint64) {
			m := e.Memory()
			m.Store(flag, 1)
			m.Store(x, i)
			m.Store(y, i)
			m.Store(flag, 0)
		}},
		{"hardware", func(e *Engine, flag, x, y mem.Addr, i uint64) {
			for !e.Execute(0, func(tx *Txn) {
				tx.Write(x, i)
				tx.Write(y, i)
			}).Committed {
			}
		}},
	}
	const readers, rounds, minCommits = 2, 20000, 500
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			e := newTestEngine(1<<12, nil)
			m := e.Memory()
			flag, x, y := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
			var done atomic.Bool
			var commits atomic.Int64
			var wg sync.WaitGroup
			for r := 1; r <= readers; r++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					for !done.Load() {
						var f, vx, vy uint64
						if e.Execute(slot, func(tx *Txn) {
							if f = tx.Read(flag); f != 0 {
								tx.Abort(1)
							}
							vx, vy = tx.Read(x), tx.Read(y)
						}).Committed {
							commits.Add(1)
							if f != 0 || vx != vy {
								t.Errorf("a reader committed flag = %d, x = %d, y = %d", f, vx, vy)
							}
						}
						runtime.Gosched() // let the writer in
					}
				}(r)
			}
			for i := uint64(1); i <= rounds || commits.Load() < minCommits; i++ {
				w.write(e, flag, x, y, i)
				runtime.Gosched()
			}
			done.Store(true)
			wg.Wait()
		})
	}
}

// TestReleaseWaitsForLineLock: a read-monitor release that finds its line
// locked waits for the unlock, and the slot is not free until it is done. So
// a lock holder, which dooms the slots its reader mask names, never reaches
// the slot's next transaction through the bit the last one is releasing.
func TestReleaseWaitsForLineLock(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	l := mem.LineOf(a)

	first := e.Begin(0)
	first.Read(a)
	held := m.Lock(l) // names slot 0 as a reader
	next := make(chan *Txn, 1)
	go func() {
		first.Commit()
		next <- e.Begin(0)
	}()
	// Correctly, the release waits on the lock and the slot stays busy; a
	// release that did not wait would free the slot for its next
	// transaction now.
	for len(next) == 0 && !lockWaiterIn("htm.(*Txn).releaseMonitors") {
		runtime.Gosched()
	}
	// Act as a non-transactional store does under the lock.
	mon, _ := e.NonTxWrite(l, held)
	m.Unlock(l, mon)
	second := <-next
	if second.Doomed() {
		t.Fatal("the lock holder doomed slot 0's next transaction through the last one's reader bit")
	}
	second.Commit()
	if en := e.entryOf(l); en != 0 {
		t.Fatalf("entry = %#x after both transactions, want 0", en)
	}
}
