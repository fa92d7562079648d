package stm

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/tm"
)

func TestRedoKeepsFirstWriteOrder(t *testing.T) {
	var r Redo
	r.Put(30, 1)
	r.Put(10, 2)
	r.Put(20, 3)
	r.Put(10, 4) // overwrite: new value, old position
	want := []Entry{{30, 1}, {10, 4}, {20, 3}}
	if got := r.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
	if v, ok := r.Get(10); !ok || v != 4 {
		t.Fatalf("Get(10) = %d, %v; want 4, true", v, ok)
	}
	if _, ok := r.Get(11); ok {
		t.Fatal("Get of an unwritten address hit")
	}
}

func TestRedoResetReusesStorage(t *testing.T) {
	var r Redo
	fill := func() {
		for a := mem.Addr(0); a < 64; a++ {
			r.Put(a, uint64(a))
		}
	}
	fill()
	r.Reset()
	if len(r.Entries()) != 0 {
		t.Fatalf("%d entries survive Reset", len(r.Entries()))
	}
	if _, ok := r.Get(5); ok {
		t.Fatal("a value survives Reset")
	}
	if n := testing.AllocsPerRun(20, func() { fill(); r.Reset() }); n != 0 {
		t.Fatalf("refilling a reset log allocates %v times", n)
	}
}

// script is a Protocol that records the calls it gets and runs a hook at
// commit.
type script struct {
	calls  []string
	commit func()
}

func (p *script) Begin()                 { p.calls = append(p.calls, "begin") }
func (p *script) Read(mem.Addr) uint64   { p.calls = append(p.calls, "read"); return 0 }
func (p *script) Write(mem.Addr, uint64) { p.calls = append(p.calls, "write") }
func (p *script) Commit()                { p.calls = append(p.calls, "commit"); p.commit() }

func newScript(commit func()) (*script, *Tx) {
	p := &script{commit: commit}
	return p, NewTx(3, nil, p)
}

func body(x tm.Tx) { x.Write(1, x.Read(1)) }

func wantFullAttempt(t *testing.T, p *script) {
	t.Helper()
	if want := []string{"begin", "read", "write", "commit"}; !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("protocol calls = %v, want %v", p.calls, want)
	}
}

func TestAttemptCommits(t *testing.T) {
	p, x := newScript(func() {})
	if !x.Attempt(body) {
		t.Fatal("Attempt reported a retry for a clean commit")
	}
	wantFullAttempt(t, p)
	if x.Thread() != 3 {
		t.Fatalf("Thread() = %d, want 3", x.Thread())
	}
}

func TestAttemptTurnsRetryIntoFalse(t *testing.T) {
	p, x := newScript(Retry)
	if x.Attempt(body) {
		t.Fatal("Attempt reported a commit after the protocol retried")
	}
	wantFullAttempt(t, p)
}

func TestAttemptPropagatesForeignPanic(t *testing.T) {
	_, x := newScript(func() {})
	defer func() {
		if r := recover(); r != "bug" {
			t.Fatalf("want the body's panic, got %v", r)
		}
	}()
	x.Attempt(func(tm.Tx) { panic("bug") })
	t.Fatal("Attempt swallowed a foreign panic")
}
