package htm

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// entryOf returns line l's entry as it stands, lock bit included.
func (e *Engine) entryOf(l mem.Line) entry { return entry(e.mem.Monitor(l).Load()) }

// TestEntryIsFourBytes: the entry is the line's memory monitor word, and the
// first access to a line misses on it as well as on the word. A field added
// to the entry would silently make it bigger again.
func TestEntryIsFourBytes(t *testing.T) {
	if n := unsafe.Sizeof(entry(0)); n != 4 {
		t.Fatalf("entry is %d bytes, want 4", n)
	}
}

// TestTopSlotMonitors drives the packed entry at its top slot. Every slot
// reads one line; slot MaxSlots-1 then writes it, so the writer field holds
// MaxSlots, and that dooms the other readers. After the doomed readers are
// gone, the writer's commit leaves the entry empty. A non-transactional
// store dooms a reader in the top slot, and there is no slot MaxSlots.
func TestTopSlotMonitors(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	l := mem.LineOf(a)
	txs := make([]*Txn, MaxSlots)
	for s := range txs {
		txs[s] = e.Begin(s)
		txs[s].Read(a)
	}
	if got, want := e.entryOf(l).readers(), uint32(1)<<MaxSlots-1; got != want {
		t.Fatalf("readers = %#x after every slot read the line, want %#x", got, want)
	}
	top := txs[MaxSlots-1]
	top.Write(a, 7)
	if w := e.entryOf(l).writer(); w != MaxSlots {
		t.Fatalf("writer = %d after slot %d wrote the line, want %d", w, MaxSlots-1, MaxSlots)
	}
	for s, tx := range txs[:MaxSlots-1] {
		if !tx.Doomed() {
			t.Errorf("slot %d was not doomed by the top slot's write", s)
		}
		tx.Cancel()
	}
	top.Commit()
	if en := e.entryOf(l); en != 0 {
		t.Fatalf("entry = %#x after the top slot committed, want 0", en)
	}
	if got := m.Load(a); got != 7 {
		t.Fatalf("Load = %d after the top slot's commit, want 7", got)
	}

	r := e.Begin(MaxSlots - 1)
	r.Read(a)
	m.Store(a, 8)
	if !r.Doomed() {
		t.Fatal("a non-transactional store did not doom the top slot's reader")
	}
	r.Cancel()
	if en := e.entryOf(l); en != 0 {
		t.Fatalf("entry = %#x after the doomed reader cancelled, want 0", en)
	}

	defer func() {
		want := fmt.Sprintf("htm: slot %d out of range [0,%d)", MaxSlots, MaxSlots)
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("Begin(MaxSlots) panicked with %v, want %q", r, want)
		}
	}()
	e.Begin(MaxSlots)
}
