package domain

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/tm"
)

const testRing = 64

// TestSingleDomainLayoutIdentity pins the N=1 degeneration: a single-domain
// set must allocate exactly what the pre-domain protocol allocated — one
// ring, then one line-aligned write-locks signature — leaving the
// allocation cursor in the identical place, so every address downstream
// code allocates is unchanged by the refactor.
func TestSingleDomainLayoutIdentity(t *testing.T) {
	words := testRing*ring.EntryWords + 64*mem.LineWords
	md := mem.New(words)
	mr := mem.New(words)

	d := New(md, Config{N: 1, RingSize: testRing})
	rr := ring.New(mr, testRing)
	wl := mr.AllocLines(sig.Lines)

	if got, want := d.Ring(0).TimestampAddr(), rr.TimestampAddr(); got != want {
		t.Fatalf("ring timestamp addr: domain set %d, direct %d", got, want)
	}
	if got := d.Wlocks(0); got != wl {
		t.Fatalf("wlocks addr: domain set %d, direct %d", got, wl)
	}
	if a, b := md.AllocLines(1), mr.AllocLines(1); a != b {
		t.Fatalf("allocation cursor diverged: %d vs %d", a, b)
	}
	if d.Of(mem.Addr(words-1)) != 0 || d.Of(0) != 0 {
		t.Fatal("single-domain Of must answer 0 for every address")
	}
}

// TestRouting checks that AllocLinesIn routes exactly: every word of an
// array allocated in domain d answers d, and addresses never carved by
// AllocLinesIn (metadata, plain allocations) answer 0.
func TestRouting(t *testing.T) {
	const n = 4
	m := mem.New(n*testRing*ring.EntryWords + (n+4)*ChunkWords)
	d := New(m, Config{N: n, RingSize: testRing})

	plain := m.AllocLines(8)
	arrays := make([]mem.Addr, n)
	for i := 0; i < n; i++ {
		arrays[i] = d.AllocLinesIn(i, 16)
	}
	for i, a := range arrays {
		for w := 0; w < 16*mem.LineWords; w++ {
			if got := d.Of(a + mem.Addr(w)); got != i {
				t.Fatalf("Of(array[%d]+%d) = %d", i, w, got)
			}
		}
	}
	for w := 0; w < 8*mem.LineWords; w++ {
		if got := d.Of(plain + mem.Addr(w)); got != 0 {
			t.Fatalf("plain allocation routed to domain %d", got)
		}
	}
}

// TestAllocArena checks the arena behaviour: grabs are line-aligned, small
// allocations pack inside one chunk, and arenas of different domains never
// share a chunk (so a cache line — let alone a word — never straddles two
// domains).
func TestAllocArena(t *testing.T) {
	const n = 2
	m := mem.New(n*testRing*ring.EntryWords + 8*ChunkWords)
	d := New(m, Config{N: n, RingSize: testRing})

	a0 := d.AllocLinesIn(0, 4)
	a1 := d.AllocLinesIn(0, 4)
	b0 := d.AllocLinesIn(1, 4)
	if a0%mem.LineWords != 0 || b0%mem.LineWords != 0 {
		t.Fatal("arena grabs must be line-aligned")
	}
	if a1 != a0+4*mem.LineWords {
		t.Fatalf("second grab should pack in the same arena: %d after %d", a1, a0)
	}
	if a0/ChunkWords == b0/ChunkWords {
		t.Fatal("domains 0 and 1 share a chunk")
	}
	// Exceeding the arena triggers a new chunk-aligned grab, still routed.
	big := d.AllocLinesIn(1, ChunkLines+1)
	if big%mem.Addr(ChunkWords) != 0 {
		t.Fatalf("multi-chunk grab not chunk-aligned: %d", big)
	}
	if d.Of(big) != 1 || d.Of(big+mem.Addr(ChunkWords)) != 1 {
		t.Fatal("multi-chunk grab not fully routed to its domain")
	}
}

// TestMetadataLineDisjoint checks that domain-owned control structures —
// the write-locks signatures in particular — occupy disjoint cache lines
// per domain: false sharing between domains would reintroduce exactly the
// cross-domain metadata contention the sharding removes.
func TestMetadataLineDisjoint(t *testing.T) {
	const n = 8
	m := mem.New(n * (testRing*ring.EntryWords + 2*ChunkWords))
	d := New(m, Config{N: n, RingSize: testRing})
	lines := map[mem.Addr]int{}
	for i := 0; i < n; i++ {
		w := d.Wlocks(i)
		if w%mem.LineWords != 0 {
			t.Fatalf("wlocks[%d] not line-aligned: %d", i, w)
		}
		for l := mem.Addr(0); l < sig.Lines; l++ {
			line := w/mem.LineWords + l
			if prev, dup := lines[line]; dup {
				t.Fatalf("wlocks of domains %d and %d share line %d", prev, i, line)
			}
			lines[line] = i
		}
		if ts := d.Ring(i).TimestampAddr(); ts%mem.LineWords != 0 {
			t.Fatalf("ring[%d] timestamp not line-aligned: %d", i, ts)
		}
	}
}

// TestSnapshotTimestamps: single-domain sets take the one eager load the
// pre-domain protocol took; multi-domain sets leave start untouched (the
// kernel records starts lazily at first touch).
func TestSnapshotTimestamps(t *testing.T) {
	m := mem.New(2*testRing*ring.EntryWords + 4*ChunkWords)
	d1 := New(m, Config{N: 1, RingSize: testRing})
	m.Store(d1.Ring(0).TimestampAddr(), 7)
	start := []uint64{99}
	d1.SnapshotTimestamps(start)
	if start[0] != 7 {
		t.Fatalf("N=1 snapshot: got %d, want 7", start[0])
	}

	m2 := mem.New(2*testRing*ring.EntryWords + 8*ChunkWords)
	d2 := New(m2, Config{N: 2, RingSize: testRing})
	start2 := []uint64{99, 99}
	d2.SnapshotTimestamps(start2)
	if start2[0] != 99 || start2[1] != 99 {
		t.Fatalf("N>1 snapshot must be lazy, got %v", start2)
	}
}

// TestClaimPublishValidate drives one domain's commit pipeline by hand:
// claim, publish, then check that a reader whose read signature intersects
// the published write signature fails validation while a disjoint reader
// passes, and that both advance their start times on success.
func TestClaimPublishValidate(t *testing.T) {
	m := mem.New(2*testRing*ring.EntryWords + 8*ChunkWords)
	d := New(m, Config{N: 2, RingSize: testRing})
	var stats tm.Stats

	var wsig sig.Signature
	wsig.Add(1234)

	var empty sig.Signature
	start := uint64(0)
	ts, ok, roll := d.ClaimTimestamp(1, &empty, &start)
	if !ok || roll || ts != 1 {
		t.Fatalf("claim: ts=%d ok=%v roll=%v", ts, ok, roll)
	}
	if start != 0 {
		t.Fatalf("claim advanced start past its own entry: %d", start)
	}
	d.Publish(1, ts, &wsig)

	conflicted := NewTxnState(2, stats.Shard(0))
	conflicted.Touched = 1 << 1
	conflicted.Read[1].Add(1234)
	if ok, _ := d.Validate(conflicted); ok {
		t.Fatal("validation must fail against an intersecting entry")
	}

	clean := NewTxnState(2, stats.Shard(1))
	clean.Touched = 1 << 1
	clean.Read[1].Add(5678)
	if ok, roll := d.Validate(clean); !ok || roll {
		t.Fatalf("disjoint reader failed validation (rollover=%v)", roll)
	}
	if clean.Start[1] != ts {
		t.Fatalf("validation did not advance start: %d != %d", clean.Start[1], ts)
	}
	// Domain 0 is untouched by all of this.
	if got := d.Ring(0).Timestamp(); got != 0 {
		t.Fatalf("domain 0 timestamp moved: %d", got)
	}
}

// TestClaimStaleStart: a claim whose start is behind the domain timestamp
// validates the gap first and advances start before CASing.
func TestClaimStaleStart(t *testing.T) {
	m := mem.New(2*testRing*ring.EntryWords + 8*ChunkWords)
	d := New(m, Config{N: 2, RingSize: testRing})

	var wsig sig.Signature
	wsig.Add(42)
	var empty sig.Signature
	start := uint64(0)
	ts, ok, _ := d.ClaimTimestamp(0, &empty, &start)
	if !ok {
		t.Fatal("first claim failed")
	}
	d.Publish(0, ts, &wsig)

	// A disjoint reader claims with a stale start: must validate, advance,
	// and claim ts+1.
	var rsig sig.Signature
	rsig.Add(43)
	start2 := uint64(0)
	ts2, ok, _ := d.ClaimTimestamp(0, &rsig, &start2)
	if !ok || ts2 != ts+1 {
		t.Fatalf("stale-start claim: ts=%d ok=%v", ts2, ok)
	}
	if start2 != ts {
		t.Fatalf("stale-start claim did not advance start: %d", start2)
	}
	d.Publish(0, ts2, &empty)

	// An intersecting reader with a stale start must fail the claim.
	start3 := uint64(0)
	if _, ok, _ := d.ClaimTimestamp(0, &wsig, &start3); ok {
		t.Fatal("claim must fail when the gap intersects the read signature")
	}
}

// TestTxnState pins the Base-mask device: single-domain states keep domain
// 0 permanently touched (the pre-domain protocol's unconditional behaviour)
// while multi-domain states are footprint-driven, and Reset clears exactly
// the touched domains' signatures.
func TestTxnState(t *testing.T) {
	var stats tm.Stats
	one := NewTxnState(1, stats.Shard(0))
	if one.Base != 1 || one.Touched != 1 {
		t.Fatalf("N=1 state: Base=%d Touched=%d, want 1,1", one.Base, one.Touched)
	}
	if one.Count() != 1 {
		t.Fatalf("N=1 Count = %d", one.Count())
	}

	four := NewTxnState(4, stats.Shard(1))
	if four.Base != 0 || four.Touched != 0 {
		t.Fatalf("N=4 state: Base=%d Touched=%d, want 0,0", four.Base, four.Touched)
	}
	four.Touched = 1<<0 | 1<<2
	four.Wrote = 1 << 2
	four.Read[0].Add(1)
	four.Write[2].Add(2)
	four.Agg[2].Add(2)
	four.Read[3].Add(3) // untouched domain: Reset must not pay to clear it
	four.Reset()
	if four.Touched != 0 || four.Wrote != 0 {
		t.Fatalf("Reset masks: Touched=%d Wrote=%d", four.Touched, four.Wrote)
	}
	if !four.Read[0].Empty() || !four.Write[2].Empty() || !four.Agg[2].Empty() {
		t.Fatal("Reset left touched-domain signatures populated")
	}
	if four.Read[3].Empty() {
		t.Fatal("Reset cleared an untouched domain (Touched mask ignored)")
	}
	if four.Shard() != stats.Shard(1) {
		t.Fatal("Shard not owner-bound")
	}
}

// TestTxnStateCleanSkipsClearing: an attempt that promises it added to no
// signature (Clean) is reset without clearing them, and Reset drops the
// promise, so the attempt after it is cleared unless it promises again.
func TestTxnStateCleanSkipsClearing(t *testing.T) {
	var stats tm.Stats
	st := NewTxnState(1, stats.Shard(0))
	st.Read[0].Add(1) // a stale bit stands for a clear that was skipped
	st.Clean = true
	st.Reset()
	if st.Clean {
		t.Fatal("Reset kept the Clean promise for the next attempt")
	}
	if st.Read[0].Empty() {
		t.Fatal("Reset cleared the signatures of a Clean attempt")
	}
	st.Reset()
	if !st.Read[0].Empty() {
		t.Fatal("Reset of an attempt that made no promise left its signatures populated")
	}
}
