package htm

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
)

// TestFootprint: however a transaction ends, Footprint reports the cycles
// and distinct lines the test drove through it, and keeps reporting them
// until the slot's next Begin.
func TestFootprint(t *testing.T) {
	type fp struct {
		cycles int64
		r, w   int
	}
	cases := []struct {
		name   string
		cfg    func(*Config)
		body   func(tx *Txn, m *mem.Memory, base mem.Addr)
		reason abort.Reason
		want   fp
	}{
		{"commit", nil, func(tx *Txn, m *mem.Memory, base mem.Addr) {
			var line [mem.LineWords]uint64
			tx.Read(base)                       // 1 cycle, read line 0
			tx.Read(base + 1)                   // 1 cycle, same line
			tx.Write(base+mem.LineWords, 1)     // 2 cycles, write line 1
			tx.WriteLocal(base+16, 1)           // 2 cycles, thread-private line 2
			tx.ReadLine(base+24, &line)         // 1 cycle, read line 3
			tx.Overwrite(base+mem.LineWords, 2) // 3 cycles, line 1 again: write set only
			tx.Work(5)
		}, abort.None, fp{15, 2, 2}},
		{"explicit", nil, func(tx *Txn, m *mem.Memory, base mem.Addr) {
			tx.Read(base)
			tx.Write(base+8, 1)
			tx.Abort(7)
		}, abort.Explicit, fp{3, 1, 1}},
		{"capacity", func(c *Config) { c.WriteLines, c.WriteWays, c.WriteSets = 2, 64, 1 },
			func(tx *Txn, m *mem.Memory, base mem.Addr) {
				for i := 0; i < 3; i++ {
					tx.Write(base+mem.Addr(i*mem.LineWords), 1)
				}
			}, abort.Capacity, fp{6, 0, 2}}, // the third write is charged; its line is refused
		{"timer", func(c *Config) { c.Quantum = 10 }, func(tx *Txn, m *mem.Memory, base mem.Addr) {
			tx.Work(4)
			tx.Read(base)
			tx.Work(6)
		}, abort.Other, fp{11, 1, 0}},
		{"conflict", nil, func(tx *Txn, m *mem.Memory, base mem.Addr) {
			tx.Read(base)
			m.Store(base, 9) // strong atomicity dooms the reader
			tx.Work(1)       // unwinds before it is charged
		}, abort.Conflict, fp{1, 1, 0}},
		{"cancel", nil, func(tx *Txn, m *mem.Memory, base mem.Addr) {
			tx.Read(base)
			tx.Write(base+8, 1)
			tx.Cancel() // ends the transaction without unwinding
		}, abort.None, fp{3, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(1024, c.cfg)
			m := e.Memory()
			base := m.AllocLines(4)
			tx := e.Begin(0)
			res := func() (res Result) {
				defer func() { res, _ = AsAbort(recover()) }()
				c.body(tx, m, base)
				if !tx.finished {
					tx.Commit()
				}
				return
			}()
			if res.Reason != c.reason {
				t.Fatalf("ended with %+v, want reason %v", res, c.reason)
			}
			for i := 0; i < 2; i++ { // stable while the slot is idle
				cycles, r, w := tx.Footprint()
				if got := (fp{cycles, r, w}); got != c.want {
					t.Fatalf("Footprint after the end = %+v, want %+v", got, c.want)
				}
				e.Execute(1, func(other *Txn) { other.Write(base+24, 1) }) // another slot's traffic
			}
			next := e.Begin(0)
			if cycles, r, w := next.Footprint(); cycles != 0 || r != 0 || w != 0 {
				t.Fatalf("Footprint at Begin = %d cycles, %d read, %d write lines; want zeros", cycles, r, w)
			}
			next.Cancel()
		})
	}
}

// TestHeld: Held reports the words buffered word-wise once each, in
// first-write order, and then the monitored read lines and write lines;
// WriteLine and WriteLocal words are not words it reports.
func TestHeld(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(6)
	line := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	tx := e.Begin(0)
	tx.Read(line(0))
	tx.Write(line(1)+3, 1)
	tx.Write(line(1), 1)
	tx.Write(line(1)+3, 2) // rewritten: still one word, in its first place
	tx.Overwrite(line(2), 1)
	tx.Add(line(3), 1)
	tx.WriteLocal(line(4), 1)
	var vals [mem.LineWords]uint64
	tx.WriteLine(line(5), &vals)

	var words []mem.Addr
	var lines []mem.Line
	tx.Held(func(a mem.Addr) { words = append(words, a) }, func(l mem.Line) { lines = append(lines, l) })
	wantWords := []mem.Addr{line(1) + 3, line(1), line(2), line(3)}
	wantLines := []mem.Line{mem.LineOf(line(0)), mem.LineOf(line(1)), mem.LineOf(line(2)), mem.LineOf(line(3)), mem.LineOf(line(5))}
	if fmt.Sprint(words) != fmt.Sprint(wantWords) || fmt.Sprint(lines) != fmt.Sprint(wantLines) {
		t.Fatalf("Held reported words %v and lines %v, want %v and %v", words, lines, wantWords, wantLines)
	}
	n := 0
	tx.Held(func(mem.Addr) { n++ }, nil)
	if n != len(wantWords) {
		t.Fatalf("Held with no line callback reported %d words, want %d", n, len(wantWords))
	}
	tx.Commit()
}

// readers of one word and of one line, for the tests that must hold for
// both paths into readMonitored (TestReadDoomsWriter is the other).
var readKinds = []struct {
	name string
	read func(tx *Txn, a mem.Addr) uint64
}{
	{"Read", func(tx *Txn, a mem.Addr) uint64 { return tx.Read(a) }},
	{"ReadLine", func(tx *Txn, a mem.Addr) uint64 {
		var line [mem.LineWords]uint64
		tx.ReadLine(a-a%mem.LineWords, &line)
		return line[a%mem.LineWords]
	}},
}

// TestReadWaitsForCommittingWriter: a writer past the point of no return
// cannot be evicted; a read of a line it has not stored yet returns only
// after the commit, with the committed value.
func TestReadWaitsForCommittingWriter(t *testing.T) {
	for _, k := range readKinds {
		t.Run(k.name, func(t *testing.T) {
			e := newTestEngine(1024, nil)
			m := e.Memory()
			a := m.AllocLines(2)
			b := a + mem.LineWords

			w := e.Begin(0)
			w.Write(a, 1)
			w.Write(b, 2) // youngest: Commit stores it first
			held := m.Lock(mem.LineOf(b))
			committed := make(chan struct{})
			go func() {
				defer close(committed)
				w.Commit()
			}()
			for w.status.Load() != stCommitting {
				runtime.Gosched()
			}
			// The commit is stuck on b's lock; a's line still names it.
			began := make(chan struct{})
			got := make(chan uint64, 1) // the reader's one result
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				res := e.Execute(1, func(tx *Txn) {
					close(began)
					got <- k.read(tx, a)
				})
				if !res.Committed {
					t.Errorf("reader aborted: %+v", res)
				}
			}()
			<-began
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			select {
			case v := <-got:
				t.Fatalf("read returned %d while the writer was still committing", v)
			default:
			}
			m.Unlock(mem.LineOf(b), held)
			if v := <-got; v != 1 {
				t.Fatalf("read after the wait = %d, want the committed 1", v)
			}
			<-committed
			<-readerDone
		})
	}
}
