package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewRoundsUpToLines(t *testing.T) {
	m := New(1)
	if m.Words() != LineWords {
		t.Fatalf("Words() = %d, want %d", m.Words(), LineWords)
	}
	m = New(9)
	if m.Words() != 2*LineWords {
		t.Fatalf("Words() = %d, want %d", m.Words(), 2*LineWords)
	}
	if m.Lines() != 2 {
		t.Fatalf("Lines() = %d, want 2", m.Lines())
	}
}

func TestAllocSequentialAndNonZero(t *testing.T) {
	m := New(1024)
	a := m.Alloc(3)
	b := m.Alloc(2)
	if a == 0 {
		t.Fatal("Alloc returned the reserved null address")
	}
	if b != a+3 {
		t.Fatalf("second Alloc = %d, want %d", b, a+3)
	}
}

func TestAllocAligned(t *testing.T) {
	m := New(4096)
	m.Alloc(3) // misalign the bump pointer
	a := m.AllocAligned(16)
	if a%LineWords != 0 {
		t.Fatalf("AllocAligned returned %d, not line aligned", a)
	}
	l := m.AllocLines(2)
	if l%LineWords != 0 {
		t.Fatalf("AllocLines returned %d, not line aligned", l)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(2 * LineWords)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	m.Alloc(10 * LineWords)
}

func TestAllocZeroPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Alloc(0)")
		}
	}()
	m.Alloc(0)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1024)
	a := m.Alloc(4)
	m.Store(a, 42)
	m.Store(a+1, 43)
	if got := m.Load(a); got != 42 {
		t.Fatalf("Load(a) = %d, want 42", got)
	}
	if got := m.Load(a + 1); got != 43 {
		t.Fatalf("Load(a+1) = %d, want 43", got)
	}
	if got := m.Load(a + 2); got != 0 {
		t.Fatalf("Load of fresh word = %d, want 0", got)
	}
}

func TestCAS(t *testing.T) {
	m := New(64)
	a := m.Alloc(1)
	m.Store(a, 5)
	if m.CAS(a, 4, 9) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if got := m.Load(a); got != 5 {
		t.Fatalf("failed CAS modified memory: %d", got)
	}
	if !m.CAS(a, 5, 9) {
		t.Fatal("CAS with right expected value failed")
	}
	if got := m.Load(a); got != 9 {
		t.Fatalf("Load after CAS = %d, want 9", got)
	}
}

func TestAddOrAndNot(t *testing.T) {
	m := New(64)
	a := m.Alloc(1)
	if got := m.Add(a, 7); got != 7 {
		t.Fatalf("Add = %d, want 7", got)
	}
	if got := m.Or(a, 0x18); got != 0x1f {
		t.Fatalf("Or = %#x, want 0x1f", got)
	}
	if got := m.AndNot(a, 0x6); got != 0x19 {
		t.Fatalf("AndNot = %#x, want 0x19", got)
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct {
		a Addr
		l Line
	}{{0, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.l {
			t.Errorf("LineOf(%d) = %d, want %d", c.a, got, c.l)
		}
	}
}

func TestConcurrentAddIsAtomic(t *testing.T) {
	m := New(64)
	a := m.Alloc(1)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(a, 1)
			}
		}()
	}
	wg.Wait()
	if got := m.Load(a); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestConcurrentCASCounter(t *testing.T) {
	m := New(64)
	a := m.Alloc(1)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					v := m.Load(a)
					if m.CAS(a, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Load(a); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// recObserver records observed accesses and never asks for a retry.
type recObserver struct {
	mu     sync.Mutex
	reads  []Line
	writes []Line
}

func (o *recObserver) NonTxRead(l Line, mon uint32) (uint32, bool) {
	o.mu.Lock()
	o.reads = append(o.reads, l)
	o.mu.Unlock()
	return mon, false
}

func (o *recObserver) NonTxWrite(l Line, mon uint32) (uint32, bool) {
	o.mu.Lock()
	o.writes = append(o.writes, l)
	o.mu.Unlock()
	return mon, false
}

func TestObserverSeesAccesses(t *testing.T) {
	m := New(1024)
	o := &recObserver{}
	m.SetObserver(o)
	a := m.AllocAligned(LineWords * 2)
	m.Store(a, 1)
	m.Load(a + LineWords)
	m.CAS(a, 1, 2)
	m.Add(a+LineWords, 1)
	if len(o.writes) != 3 {
		t.Fatalf("observer saw %d writes, want 3 (Store, CAS, Add)", len(o.writes))
	}
	if len(o.reads) != 1 {
		t.Fatalf("observer saw %d reads, want 1", len(o.reads))
	}
	if o.writes[0] != LineOf(a) || o.reads[0] != LineOf(a+LineWords) {
		t.Fatalf("observer recorded wrong lines: %v %v", o.writes, o.reads)
	}
}

// retryOnce asks for one retry, then allows the access; the accessor must
// loop rather than fail.
type retryOnce struct {
	left int
}

func (o *retryOnce) NonTxRead(_ Line, mon uint32) (uint32, bool) { return mon, false }
func (o *retryOnce) NonTxWrite(_ Line, mon uint32) (uint32, bool) {
	if o.left > 0 {
		o.left--
		return mon, true
	}
	return mon, false
}

func TestObserverRetryLoops(t *testing.T) {
	m := New(64)
	m.SetObserver(&retryOnce{left: 3})
	a := m.Alloc(1)
	m.Store(a, 77)
	m.SetObserver(nil)
	if got := m.Load(a); got != 77 {
		t.Fatalf("Load = %d, want 77 after retried Store", got)
	}
}

func TestQuickStoreLoad(t *testing.T) {
	m := New(1 << 16)
	base := m.Alloc(1 << 10)
	f := func(off uint16, v uint64) bool {
		a := base + Addr(off)%(1<<10)
		m.Store(a, v)
		return m.Load(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReserveTop(t *testing.T) {
	m := New(1 << 12)
	shadow := m.ReserveTop(1 << 11)
	if int(shadow) != 1<<11 {
		t.Fatalf("shadow base = %d, want %d", shadow, 1<<11)
	}
	// Allocations must stay below the reserved region.
	a := m.Alloc(100)
	if int(a)+100 > int(shadow) {
		t.Fatalf("Alloc %d crossed into the reserved region", a)
	}
	// Exhausting the remaining lower half must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	m.Alloc(1 << 11)
}

func TestReserveTopOverlapPanics(t *testing.T) {
	m := New(256)
	m.Alloc(200)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overlap panic")
		}
	}()
	m.ReserveTop(128)
}

func TestLockUnlockDirect(t *testing.T) {
	m := New(256)
	a := m.Alloc(1)
	l := LineOf(a)
	held := m.Lock(l)
	m.RawStore(a, 12)
	v := m.RawLoad(a)
	m.Unlock(l, held)
	if v != 12 {
		t.Fatalf("RawLoad = %d", v)
	}
	if got := m.Load(a); got != 12 {
		t.Fatalf("Load = %d", got)
	}
}

func TestAllocLinesAligned(t *testing.T) {
	m := New(1 << 14)
	m.AllocLines(3) // skew the cursor off any large alignment
	a := m.AllocLinesAligned(4, 16)
	if a%(16*LineWords) != 0 {
		t.Fatalf("AllocLinesAligned(4,16) = %d, not 16-line aligned", a)
	}
	// The next plain allocation starts after the aligned region.
	b := m.AllocLines(1)
	if b < a+4*LineWords {
		t.Fatalf("allocation overlap: %d inside aligned region at %d", b, a)
	}
	// Already-aligned cursors are not padded further.
	c := m.AllocLinesAligned(16, 16)
	d := m.AllocLinesAligned(16, 16)
	if d != c+16*LineWords {
		t.Fatalf("back-to-back aligned grabs left a gap: %d after %d", d, c)
	}
}

func TestAllocLinesAlignedPanics(t *testing.T) {
	m := New(1 << 10)
	for _, bad := range [][2]int{{0, 16}, {-1, 16}, {4, 0}, {4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AllocLinesAligned(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			m.AllocLinesAligned(bad[0], bad[1])
		}()
	}
}

// countObserver counts the non-transactional accesses to each line twice: in
// a plain slice element, which only the line lock keeps race-free, and in the
// line's observer bits, which Unlock must write back.
type countObserver struct{ n []int }

func (o *countObserver) NonTxRead(l Line, mon uint32) (uint32, bool) {
	o.n[l]++
	return mon + 1, false
}

func (o *countObserver) NonTxWrite(l Line, mon uint32) (uint32, bool) {
	o.n[l]++
	return mon + 1, false
}

// TestLineLockHammer runs Load, Store, CAS and Add from several goroutines
// on lines 0 and 4096. Each line's lock must exclude the others' accesses to
// it (the observer's plain counters; run it with -race), keep the observer
// bits each holder writes back, and keep every counter exact.
func TestLineLockHammer(t *testing.T) {
	const workers, per = 4, 2000
	m := New(4097 * LineWords)
	o := &countObserver{n: make([]int, m.Lines())}
	m.SetObserver(o)
	lines := [2]Line{0, 4096}
	base := func(l Line) Addr { return Addr(l) * LineWords }
	var wg sync.WaitGroup
	accesses := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for i := 0; i < per; i++ {
				l := lines[i&1]
				m.Add(base(l), 1)
				for {
					v := m.Load(base(l) + 1)
					n++
					if m.CAS(base(l)+1, v, v+1) {
						break
					}
					n++
				}
				own := base(l) + 2 + Addr(w) // this worker's word
				m.Store(own, uint64(i))
				if got := m.Load(own); got != uint64(i) {
					t.Errorf("worker %d loaded %d from its own word, stored %d", w, got, i)
				}
				n += 4 // Add, the successful CAS, Store, Load
			}
			accesses[w] = n
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range accesses {
		total += n
	}
	for _, l := range lines {
		if got := m.Load(base(l)); got != workers*per/2 {
			t.Errorf("line %d: Add counter = %d, want %d", l, got, workers*per/2)
		}
		if got := m.Load(base(l) + 1); got != workers*per/2 {
			t.Errorf("line %d: CAS counter = %d, want %d", l, got, workers*per/2)
		}
		total += 2 // the two Loads just made
	}
	if got := o.n[0] + o.n[4096]; got != total {
		t.Errorf("observer saw %d accesses, want %d", got, total)
	}
	for _, l := range lines {
		if got := m.Monitor(l).Load(); got != uint32(o.n[l]) {
			t.Errorf("line %d: monitor word = %d, want the %d accesses the observer counted", l, got, o.n[l])
		}
	}
}

// TestLockExcludesMonitorCAS: while a line is locked, a CAS that expects the
// lock clear fails, Unlocked waits, and Unlock leaves the holder's bits.
func TestLockExcludesMonitorCAS(t *testing.T) {
	m := New(64)
	l := LineOf(m.AllocLines(1))
	mon := m.Monitor(l)
	mon.Store(5)
	held := m.Lock(l)
	if held != 5 || mon.Load() != 5|LockBit {
		t.Fatalf("Lock returned %#x with the word at %#x, want 5 and %#x", held, mon.Load(), 5|LockBit)
	}
	if mon.CompareAndSwap(held, held|2) {
		t.Fatal("a CAS expecting the lock clear succeeded on a locked line")
	}
	got := make(chan uint32)
	go func() { got <- m.Unlocked(l) }()
	select {
	case v := <-got:
		t.Fatalf("Unlocked returned %#x while the line was locked", v)
	default:
	}
	m.Unlock(l, 7)
	if v := <-got; v != 7 {
		t.Fatalf("Unlocked returned %#x after Unlock(7)", v)
	}
}
