package prof

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/perthread"
)

// oracle tracks exact frequencies next to a sketch.
type oracle map[uint32]uint64

func (o oracle) observe(s *Sketch, key uint32, n uint64) {
	s.ObserveN(key, n)
	o[key] += n
}

// checkBounds asserts the SpaceSaving invariants against exact counts:
// every present key's count is an upper bound and count-err a lower
// bound; every absent key's true count is bounded by the minimum entry.
func checkBounds(t *testing.T, s *Sketch, o oracle) {
	t.Helper()
	var total uint64
	for _, n := range o {
		total += n
	}
	if s.Total() != total {
		t.Fatalf("Total() = %d, want %d", s.Total(), total)
	}
	if s.Len() > s.Cap() {
		t.Fatalf("Len() %d exceeds Cap() %d", s.Len(), s.Cap())
	}
	minCount := uint64(0)
	if s.Len() == s.Cap() {
		minCount = ^uint64(0)
		for _, h := range s.Top(nil) {
			if h.Count < minCount {
				minCount = h.Count
			}
		}
	}
	for key, want := range o {
		count, errB, ok := s.Count(key)
		if !ok {
			// Absent: true frequency can be at most the min entry count
			// (SpaceSaving evicts only keys at the minimum).
			if s.Len() == s.Cap() && want > minCount {
				t.Fatalf("key %d (true %d) absent but exceeds min entry %d", key, want, minCount)
			}
			continue
		}
		if count < want {
			t.Fatalf("key %d: count %d underestimates true %d", key, count, want)
		}
		if count-errB > want {
			t.Fatalf("key %d: lower bound %d exceeds true %d", key, count-errB, want)
		}
	}
}

func TestSketchExactUnderCapacity(t *testing.T) {
	s := NewSketch(8)
	o := oracle{}
	for i := 0; i < 100; i++ {
		o.observe(s, uint32(i%8), 1)
	}
	for key, want := range o {
		count, errB, ok := s.Count(key)
		if !ok || count != want || errB != 0 {
			t.Fatalf("key %d: got (%d, %d, %v), want exact (%d, 0, true)", key, count, errB, ok, want)
		}
	}
	checkBounds(t, s, o)
}

func TestSketchBoundsUnderEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch(8)
	o := oracle{}
	// Zipf-ish stream over 64 keys through an 8-entry sketch.
	zipf := rand.NewZipf(rng, 1.3, 1.0, 63)
	for i := 0; i < 10_000; i++ {
		o.observe(s, uint32(zipf.Uint64()), 1)
	}
	checkBounds(t, s, o)
}

// TestSketchHeavyHitterGuarantee: any key with true frequency strictly
// above Total/Cap must be present in the sketch.
func TestSketchHeavyHitterGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSketch(4)
	o := oracle{}
	// One heavy key buried in uniform noise over 1000 keys.
	for i := 0; i < 8_000; i++ {
		if rng.Intn(3) == 0 {
			o.observe(s, 42, 1)
		} else {
			o.observe(s, uint32(rng.Intn(1000))+100, 1)
		}
	}
	threshold := s.Total() / uint64(s.Cap())
	for key, n := range o {
		if n > threshold {
			if _, _, ok := s.Count(key); !ok {
				t.Fatalf("heavy hitter %d (true %d > %d) missing from sketch", key, n, threshold)
			}
		}
	}
	if _, _, ok := s.Count(42); !ok {
		t.Fatal("planted heavy key missing")
	}
}

func fill(keys ...uint32) *Sketch {
	s := NewSketch(4)
	for _, k := range keys {
		s.Observe(k)
	}
	return s
}

func tops(s *Sketch) []HotLine { return s.Top(nil) }

func TestSketchMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		mk := func() (*Sketch, *Sketch) {
			a, b := NewSketch(4), NewSketch(4)
			for i := 0; i < 200; i++ {
				a.Observe(uint32(rng.Intn(12)))
				b.Observe(uint32(rng.Intn(12)))
			}
			return a, b
		}
		rng = rand.New(rand.NewSource(int64(trial)))
		a1, b1 := mk()
		rng = rand.New(rand.NewSource(int64(trial)))
		a2, b2 := mk()
		a1.Merge(b1) // A+B
		b2.Merge(a2) // B+A
		if !reflect.DeepEqual(tops(a1), tops(b2)) {
			t.Fatalf("trial %d: merge not commutative:\nA+B=%v\nB+A=%v", trial, tops(a1), tops(b2))
		}
		if a1.Total() != b2.Total() {
			t.Fatalf("trial %d: totals differ after merge", trial)
		}
	}
}

// Merge is associative whenever the union of keys fits the capacity (no
// truncation): exercised with 4 distinct keys in a capacity-4 sketch.
func TestSketchMergeAssociativeNoTruncation(t *testing.T) {
	mk := func() (*Sketch, *Sketch, *Sketch) {
		return fill(1, 1, 2), fill(2, 3, 3), fill(4, 4, 1)
	}
	a, b, c := mk()
	b.Merge(c)
	a.Merge(b) // A+(B+C)
	left := tops(a)

	a2, b2, c2 := mk()
	a2.Merge(b2)
	a2.Merge(c2) // (A+B)+C
	right := tops(a2)

	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative without truncation:\nA+(B+C)=%v\n(A+B)+C=%v", left, right)
	}
}

// TestSketchMergedHeavyHitter: after merging shards, keys above
// 2*Total/Cap survive (the relaxed merged-summary guarantee).
func TestSketchMergedHeavyHitter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shards := make([]*Sketch, 4)
	o := oracle{}
	for i := range shards {
		shards[i] = NewSketch(8)
		for j := 0; j < 2_000; j++ {
			key := uint32(rng.Intn(500)) + 10
			if rng.Intn(4) == 0 {
				key = 7 // planted hot key, ~25% of all events
			}
			o.observe(shards[i], key, 1)
		}
	}
	merged := NewSketch(8)
	for _, sh := range shards {
		merged.Merge(sh)
	}
	threshold := 2 * merged.Total() / uint64(merged.Cap())
	for key, n := range o {
		if n > threshold {
			if _, _, ok := merged.Count(key); !ok {
				t.Fatalf("merged heavy hitter %d (true %d > %d) missing", key, n, threshold)
			}
		}
	}
	if _, _, ok := merged.Count(7); !ok {
		t.Fatal("planted hot key missing after merge")
	}
}

func TestSketchTopOrder(t *testing.T) {
	s := fill(5, 5, 5, 9, 9, 2)
	top := tops(s)
	want := []HotLine{{Line: 5, Count: 3}, {Line: 9, Count: 2}, {Line: 2, Count: 1}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("Top = %v, want %v", top, want)
	}
}

func TestSketchReset(t *testing.T) {
	s := fill(1, 2, 3)
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 || len(tops(s)) != 0 {
		t.Fatalf("Reset left state: len=%d total=%d", s.Len(), s.Total())
	}
	s.Observe(9)
	if c, _, ok := s.Count(9); !ok || c != 1 {
		t.Fatal("sketch unusable after Reset")
	}
}

func TestSketchNilSafe(t *testing.T) {
	var s *Sketch
	s.Observe(1)
	s.ObserveN(2, 3)
	s.Merge(fill(1))
	s.Reset()
	if s.Cap() != 0 || s.Len() != 0 || s.Total() != 0 || s.Top(nil) != nil {
		t.Fatal("nil sketch not inert")
	}
	if _, _, ok := s.Count(1); ok {
		t.Fatal("nil sketch claims a key")
	}
}

func TestSketchObserveAllocFree(t *testing.T) {
	s := NewSketch(8)
	if n := testing.AllocsPerRun(1000, func() { s.Observe(uint32(s.Total()) % 16) }); n != 0 {
		t.Fatalf("Observe allocates %.1f allocs/op, want 0", n)
	}
}

// TestSketchRaceHammer drives the intended concurrency discipline under
// -race: one sketch per goroutine (single-writer), merged after the join.
func TestSketchRaceHammer(t *testing.T) {
	const workers = 8
	shards := make([]*Sketch, workers)
	for w := range shards {
		shards[w] = NewSketch(16)
	}
	perthread.Run(workers, func(w int) {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 20_000; i++ {
			shards[w].Observe(uint32(rng.Intn(64)))
		}
	})
	merged := NewSketch(16)
	var want uint64
	for _, sh := range shards {
		want += sh.Total()
		merged.Merge(sh)
	}
	if merged.Total() != want {
		t.Fatalf("merged total %d, want %d", merged.Total(), want)
	}
}

func FuzzSketch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 1, 200, 7})
	f.Add([]byte{})
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the bytes as an observation stream split across two
		// shards, then check every invariant against the exact oracles.
		a, b := NewSketch(4), NewSketch(4)
		oa, ob, o := oracle{}, oracle{}, oracle{}
		for i, c := range data {
			key := uint32(c % 32)
			n := uint64(c%3) + 1
			if i%2 == 0 {
				oa.observe(a, key, n)
			} else {
				ob.observe(b, key, n)
			}
			o[key] += n
		}
		// Per-shard, the full upper/lower bound invariants hold.
		checkBounds(t, a, oa)
		checkBounds(t, b, ob)
		a.Merge(b)
		var total uint64
		for _, n := range o {
			total += n
		}
		if a.Total() != total {
			t.Fatalf("merged total %d, want %d", a.Total(), total)
		}
		if a.Len() > a.Cap() {
			t.Fatalf("len %d over cap %d", a.Len(), a.Cap())
		}
		// After a truncating merge only the lower bound survives per key:
		// a key evicted from one shard leaves its mass in that shard's
		// other entries, so the merged count can undercount it (the upper
		// bound is a per-shard property).
		for key, want := range o {
			if count, errB, ok := a.Count(key); ok {
				if count-errB > want {
					t.Fatalf("key %d: lower bound %d exceeds %d", key, count-errB, want)
				}
			}
		}
		// The merged heavy-hitter guarantee.
		threshold := 2 * total / uint64(a.Cap())
		for key, n := range o {
			if n > threshold {
				if _, _, ok := a.Count(key); !ok {
					t.Fatalf("heavy key %d (%d > %d) lost in merge", key, n, threshold)
				}
			}
		}
		// Top is sorted by count desc, line asc.
		top := a.Top(nil)
		for i := 1; i < len(top); i++ {
			if top[i].Count > top[i-1].Count ||
				(top[i].Count == top[i-1].Count && top[i].Line < top[i-1].Line) {
				t.Fatalf("Top not ordered at %d: %v", i, top)
			}
		}
	})
}
