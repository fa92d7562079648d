package prof

import (
	"repro/internal/abort"

	"strings"
	"testing"
)

func TestShardRecordAndMergedQueries(t *testing.T) {
	p := New(Config{TopK: 8, Sets: 16})
	s0, s1 := p.Shard(0), p.Shard(1)
	if s0 == nil || s1 == nil || s0 == s1 {
		t.Fatal("Shard() did not return distinct shards")
	}
	if s0.Thread() != 0 || s1.Thread() != 1 {
		t.Fatalf("shard thread ids: %d, %d", s0.Thread(), s1.Thread())
	}

	// Two threads both hammer line 100; thread 1 also sees line 17 once.
	for i := 0; i < 5; i++ {
		s0.RecordConflict(100)
	}
	for i := 0; i < 3; i++ {
		s1.RecordConflict(100)
	}
	s1.RecordConflict(17)
	s0.RecordCapacity(33)

	if got := p.ConflictEvents(); got != 9 {
		t.Fatalf("ConflictEvents = %d, want 9", got)
	}
	top := p.TopK(0)
	if len(top) != 2 || top[0].Line != 100 || top[0].Count != 8 || top[1].Line != 17 {
		t.Fatalf("TopK = %v, want line 100 count 8 then line 17", top)
	}
	if got := p.TopK(1); len(got) != 1 || got[0].Line != 100 {
		t.Fatalf("TopK(1) = %v", got)
	}

	heat := p.Heat()
	if len(heat) != 16 {
		t.Fatalf("Heat has %d sets, want 16", len(heat))
	}
	if heat[100%16].Conflicts != 8 || heat[17%16].Conflicts != 1 {
		t.Fatalf("conflict heat wrong: %+v", heat)
	}
	if heat[33%16].Capacity != 1 {
		t.Fatalf("capacity heat wrong: %+v", heat)
	}

	// Footprints: commits on the fast path, one sub-path conflict abort.
	s0.RecordFootprint(ClassFast, abort.None, 4, 2, 2)
	s1.RecordFootprint(ClassFast, abort.None, 8, 1, 1)
	s1.RecordFootprint(ClassSub, abort.Conflict, 3, 3, 3)
	fps := p.Footprints()
	if len(fps) != 2 {
		t.Fatalf("Footprints rows = %d, want 2: %+v", len(fps), fps)
	}
	if fps[0].Class != "fast" || fps[0].Outcome != "commit" || fps[0].Count != 2 {
		t.Fatalf("fast/commit row wrong: %+v", fps[0])
	}
	if fps[0].ReadMax < 8 || fps[0].WriteMax < 2 {
		t.Fatalf("fast/commit maxima wrong: %+v", fps[0])
	}
	if fps[1].Class != "sub" || fps[1].Outcome != "conflict" || fps[1].Count != 1 {
		t.Fatalf("sub/conflict row wrong: %+v", fps[1])
	}

	p.Reset()
	if p.ConflictEvents() != 0 || len(p.TopK(0)) != 0 || len(p.Footprints()) != 0 {
		t.Fatal("Reset left shard state")
	}
	for _, h := range p.Heat() {
		if h.Conflicts != 0 || h.Capacity != 0 {
			t.Fatalf("Reset left heat: %+v", h)
		}
	}
}

func TestRecordFootprintClamps(t *testing.T) {
	p := New(Config{})
	s := p.Shard(0)
	s.RecordFootprint(200, 200, 1, 1, 1) // out-of-range class and outcome
	fps := p.Footprints()
	if len(fps) != 1 {
		t.Fatalf("clamped record produced %d rows, want 1", len(fps))
	}
	if fps[0].Class != ClassName(ClassCount-1) || fps[0].Outcome != OutcomeName(abort.Count-1) {
		t.Fatalf("clamp landed in %s/%s", fps[0].Class, fps[0].Outcome)
	}
}

func TestNilProfileAndShardInert(t *testing.T) {
	var p *Profile
	if p.Shard(3) != nil {
		t.Fatal("nil profile returned a shard")
	}
	p.Reset()
	if p.TopK(0) != nil || p.Heat() != nil || p.Footprints() != nil ||
		p.ConflictEvents() != 0 {
		t.Fatal("nil profile not inert")
	}

	var s *Shard
	s.RecordConflict(1)
	s.RecordCapacity(1)
	s.RecordFootprint(0, 0, 1, 1, 1)
	if s.Thread() != 0 {
		t.Fatal("nil shard not inert")
	}
}

func TestRecordHooksAllocFree(t *testing.T) {
	s := New(Config{TopK: 8, Sets: 16}).Shard(0)
	var line uint32
	if n := testing.AllocsPerRun(1000, func() {
		line = (line + 7) % 64
		s.RecordConflict(line)
	}); n != 0 {
		t.Fatalf("RecordConflict allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.RecordCapacity(line) }); n != 0 {
		t.Fatalf("RecordCapacity allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.RecordFootprint(ClassFast, abort.None, 4, 2, 2)
	}); n != 0 {
		t.Fatalf("RecordFootprint allocates %.1f allocs/op, want 0", n)
	}
}

func TestClassAndOutcomeNames(t *testing.T) {
	for c := uint8(0); c < ClassCount; c++ {
		if name := ClassName(c); strings.Contains(name, "?") {
			t.Fatalf("ClassName(%d) = %q", c, name)
		}
	}
	for o := abort.None; o < abort.Count; o++ {
		if name := OutcomeName(o); strings.Contains(name, "(") {
			t.Fatalf("OutcomeName(%d) = %q", o, name)
		}
	}
	if OutcomeName(abort.None) != "commit" || OutcomeName(abort.Capacity) != "capacity" {
		t.Fatalf("OutcomeName(None, Capacity) = %q, %q", OutcomeName(abort.None), OutcomeName(abort.Capacity))
	}
	if ClassName(ClassCount) != "class?" || OutcomeName(abort.Count) != "reason(5)" {
		t.Fatal("out-of-range names must be marked unknown")
	}
}
