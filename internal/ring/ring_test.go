package ring

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sig"
)

func newRing(size int) (*Ring, *mem.Memory) {
	m := mem.New(1 << 16)
	return New(m, size), m
}

func TestNewRequiresPowerOfTwo(t *testing.T) {
	m := mem.New(1 << 16)
	for _, bad := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(m, bad)
		}()
	}
}

func TestTimestampStartsZero(t *testing.T) {
	r, _ := newRing(8)
	if r.Timestamp() != 0 {
		t.Fatalf("fresh ring timestamp = %d", r.Timestamp())
	}
	if r.Size() != 8 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestPublishAndReadEntry(t *testing.T) {
	r, _ := newRing(8)
	var s sig.Signature
	s.Add(42)
	s.Add(1000)
	r.PublishSW(1, &s)
	var w [sig.Words]uint64
	if !r.ReadEntry(1, w[:]) {
		t.Fatal("ReadEntry(1) reported rollover")
	}
	var got sig.Signature
	copy(got[:], w[:])
	if !got.Equal(&s) {
		t.Fatal("entry signature mismatch")
	}
}

func TestReadEntryZeroIsEmpty(t *testing.T) {
	r, _ := newRing(8)
	w := make([]uint64, sig.Words)
	w[0] = ^uint64(0) // must be cleared
	if !r.ReadEntry(0, w) {
		t.Fatal("ReadEntry(0) failed")
	}
	for i, v := range w {
		if v != 0 {
			t.Fatalf("word %d = %d, want 0", i, v)
		}
	}
}

func TestReadEntryRollover(t *testing.T) {
	r, _ := newRing(4)
	var s sig.Signature
	for ts := uint64(1); ts <= 6; ts++ {
		r.PublishSW(ts, &s)
	}
	w := make([]uint64, sig.Words)
	if r.ReadEntry(1, w) {
		t.Fatal("entry 1 was overwritten by 5 but ReadEntry succeeded")
	}
	if !r.ReadEntry(6, w) {
		t.Fatal("latest entry must be readable")
	}
}

func TestValidateDisjoint(t *testing.T) {
	r, _ := newRing(8)
	var wsig sig.Signature
	wsig.Add(500)
	r.PublishSW(1, &wsig)
	var readSig sig.Signature
	readSig.Add(600)
	if sig.HashBit(500) == sig.HashBit(600) {
		t.Skip("hash collision between test addresses")
	}
	if !r.Validate(&readSig, 0, 1) {
		t.Fatal("disjoint read set failed validation")
	}
}

func TestValidateConflict(t *testing.T) {
	r, _ := newRing(8)
	var wsig sig.Signature
	wsig.Add(500)
	r.PublishSW(1, &wsig)
	var readSig sig.Signature
	readSig.Add(500)
	if r.Validate(&readSig, 0, 1) {
		t.Fatal("conflicting read set passed validation")
	}
}

func TestValidateRangeSemantics(t *testing.T) {
	r, _ := newRing(8)
	var w1, w2 sig.Signature
	w1.Add(100)
	w2.Add(200)
	r.PublishSW(1, &w1)
	r.PublishSW(2, &w2)
	var readSig sig.Signature
	readSig.Add(100)
	// (1, 2]: only entry 2 is checked; entry 1's conflict is out of range.
	if sig.HashBit(100) == sig.HashBit(200) {
		t.Skip("hash collision")
	}
	if !r.Validate(&readSig, 1, 2) {
		t.Fatal("validation checked an entry outside (from, to]")
	}
	if r.Validate(&readSig, 0, 2) {
		t.Fatal("validation missed entry 1")
	}
}

func TestValidateRolloverFails(t *testing.T) {
	r, _ := newRing(4)
	var s sig.Signature
	for ts := uint64(1); ts <= 6; ts++ {
		r.PublishSW(ts, &s)
	}
	var readSig sig.Signature
	if r.Validate(&readSig, 0, 6) {
		t.Fatal("validation across a rolled-over range must fail")
	}
	if !r.Validate(&readSig, 2, 6) {
		t.Fatal("validation within the live window must pass")
	}
}

func TestWaitDoneZero(t *testing.T) {
	r, _ := newRing(4)
	r.WaitDone(0) // must not block
}

func TestSetDoneWaitDone(t *testing.T) {
	r, _ := newRing(4)
	var s sig.Signature
	r.PublishSW(1, &s)
	done := make(chan struct{})
	go func() {
		r.WaitDone(1)
		close(done)
	}()
	r.SetDone(1)
	<-done
}

func TestAddrHelpersDistinct(t *testing.T) {
	r, _ := newRing(8)
	if r.SeqAddr(1) == r.DoneAddr(1) || r.SeqAddr(1) == r.SigAddr(1) {
		t.Fatal("entry field addresses collide")
	}
	if r.SeqAddr(1) != r.SeqAddr(9) {
		t.Fatal("timestamps 1 and 9 must share a slot in a ring of 8")
	}
	if r.SeqAddr(1) == r.SeqAddr(2) {
		t.Fatal("distinct slots must have distinct addresses")
	}
	if r.SigAddr(1)%mem.LineWords != 0 {
		t.Fatal("signature must start on a line boundary")
	}
}

func TestAwaitPrevPublishedGate(t *testing.T) {
	r, _ := newRing(4)
	var s sig.Signature
	for ts := uint64(1); ts <= 4; ts++ {
		r.PublishSW(ts, &s)
	}
	// Slot for ts=5 holds generation 1: the gate must pass immediately
	// (prevGen(5) == 1) and publishing must succeed.
	done := make(chan struct{})
	go func() {
		r.PublishSW(5, &s)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("gate deadlocked on a free slot")
	}
}

func TestWaitDoneAcceptsLaterGenerations(t *testing.T) {
	r, _ := newRing(4)
	var s sig.Signature
	r.PublishSW(1, &s)
	r.SetDone(1)
	r.PublishSW(5, &s)
	r.SetDone(5)
	// A reader holding the stale snapshot ts=1 must not hang: the slot's
	// done-word (5) proves generation 1 finished long ago.
	done := make(chan struct{})
	go func() {
		r.WaitDone(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitDone hung on a lapped slot (the pre-fix livelock)")
	}
}

func TestReadEntrySpinsThroughWritingSentinel(t *testing.T) {
	r, m := newRing(8)
	var s sig.Signature
	s.Add(99)
	// Simulate a mid-flight publisher: seq = Writing, then complete it.
	m.Store(r.SeqAddr(1), Writing)
	done := make(chan sig.Signature)
	go func() {
		var w sig.Signature
		if !r.ReadEntry(1, w[:]) {
			t.Error("ReadEntry reported rollover for a live entry")
		}
		done <- w
	}()
	select {
	case <-done:
		t.Fatal("ReadEntry returned while the entry was mid-publish")
	case <-time.After(30 * time.Millisecond):
	}
	m.Store(r.SeqAddr(1)+offFields, fullFlag)
	for i := 0; i < sig.Words; i++ {
		m.Store(r.SigAddr(1)+mem.Addr(i), s[i])
	}
	m.Store(r.SeqAddr(1), 1)
	select {
	case got := <-done:
		if got != s {
			t.Fatal("ReadEntry returned something other than the completed entry")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReadEntry never completed")
	}
}

func TestValidateDetailRollover(t *testing.T) {
	r, _ := newRing(4)
	var s sig.Signature
	for ts := uint64(1); ts <= 6; ts++ {
		r.PublishSW(ts, &s)
	}
	var readSig sig.Signature
	if ok, roll := r.ValidateDetail(&readSig, 0, 6); ok || !roll {
		t.Fatalf("rolled-over range: ok=%v rollover=%v, want false,true", ok, roll)
	}
	if ok, roll := r.ValidateDetail(&readSig, 2, 6); !ok || roll {
		t.Fatalf("live window: ok=%v rollover=%v, want true,false", ok, roll)
	}
	// to < from is a plain failure, not a rollover.
	if ok, roll := r.ValidateDetail(&readSig, 6, 2); ok || roll {
		t.Fatalf("inverted range: ok=%v rollover=%v, want false,false", ok, roll)
	}
}
