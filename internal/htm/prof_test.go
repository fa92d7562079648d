package htm

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
	"repro/internal/prof"
)

// TestProfConflictAttribution checks requester-side attribution: the
// transaction that dooms a rival over a line records that line into its
// own shard.
func TestProfConflictAttribution(t *testing.T) {
	e := newTestEngine(1024, nil)
	p := prof.New(prof.Config{Sets: e.Config().WriteSets})
	e.SetProfile(p)
	a := e.Memory().Alloc(1)
	line := uint32(mem.LineOf(a))

	// Victim (slot 0) writes the line and stalls; requester (slot 1)
	// writes the same line, dooming the victim, then commits.
	victim := e.Begin(0)
	func() {
		defer func() { recover() }() // victim may notice the doom mid-write
		victim.Write(a, 1)
	}()

	requester := e.Begin(1)
	requester.Write(a, 2)
	requester.Commit()

	// The victim unwinds with Conflict at its next transactional step.
	func() {
		defer func() {
			res, ok := AsAbort(recover())
			if !ok || res.Reason != abort.Conflict {
				t.Errorf("victim should unwind with Conflict, got %+v (ok=%v)", res, ok)
			}
		}()
		victim.Read(a)
		victim.Commit()
		t.Error("victim committed despite being doomed")
	}()

	// Requester-side attribution: slot 1's shard holds the line.
	top := p.TopK(0)
	if len(top) == 0 {
		t.Fatal("no conflict lines recorded")
	}
	if top[0].Line != line {
		t.Fatalf("hot line = %d, want %d", top[0].Line, line)
	}
	if p.ConflictEvents() == 0 {
		t.Fatal("ConflictEvents = 0 after a doom")
	}
	heat := p.Heat()
	if heat[int(line)%len(heat)].Conflicts == 0 {
		t.Fatal("set heat not bumped for the conflict line")
	}
	// The commit and the conflict abort both leave footprint rows.
	var sawCommit, sawConflict bool
	for _, f := range p.Footprints() {
		if f.Class != "fast" {
			t.Fatalf("unexpected class %q on whole-hw windows", f.Class)
		}
		switch f.Outcome {
		case "commit":
			sawCommit = true
			if f.WriteMax < 1 {
				t.Fatalf("commit footprint has no write lines: %+v", f)
			}
		case "conflict":
			sawConflict = true
		}
	}
	if !sawCommit || !sawConflict {
		t.Fatalf("footprints missing rows: commit=%v conflict=%v", sawCommit, sawConflict)
	}
}

// TestProfCapacityAttribution: the access that exceeds the write-buffer
// resources is the one attributed, into the capacity heat plane.
func TestProfCapacityAttribution(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteSets = 1
		c.WriteWays = 2 // third distinct line overflows
	})
	p := prof.New(prof.Config{Sets: 1})
	e.SetProfile(p)
	base := e.Memory().AllocLines(4)

	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 3; i++ {
			tx.Write(base+mem.Addr(i*mem.LineWords), 1)
		}
	})
	if res.Committed || res.Reason != abort.Capacity {
		t.Fatalf("want capacity abort, got %+v", res)
	}
	heat := p.Heat()
	if len(heat) != 1 || heat[0].Capacity == 0 {
		t.Fatalf("capacity overflow not recorded in heat: %+v", heat)
	}
	if heat[0].Conflicts != 0 {
		t.Fatalf("capacity abort recorded as conflict: %+v", heat)
	}
	var sawCap bool
	for _, f := range p.Footprints() {
		if f.Outcome == "capacity" && f.Class == "fast" {
			sawCap = true
			if f.OccMax < 2 {
				t.Fatalf("capacity footprint occupancy %d, want >= 2", f.OccMax)
			}
		}
	}
	if !sawCap {
		t.Fatalf("no fast/capacity footprint row: %+v", p.Footprints())
	}
}

// TestProfDetached: with no profile attached (the default), transactions
// run and abort exactly as before and nothing is recorded anywhere.
func TestProfDetached(t *testing.T) {
	e := newTestEngine(1024, nil)
	a := e.Memory().Alloc(1)
	res := e.Execute(0, func(tx *Txn) { tx.Write(a, 1) })
	if !res.Committed {
		t.Fatalf("commit failed without profile: %+v", res)
	}
	// Attaching after the fact starts from a clean slate.
	p := prof.New(prof.Config{})
	e.SetProfile(p)
	if p.ConflictEvents() != 0 || len(p.Footprints()) != 0 {
		t.Fatal("pre-attach activity leaked into the profile")
	}
	res = e.Execute(0, func(tx *Txn) { tx.Write(a, 2) })
	if !res.Committed {
		t.Fatalf("commit failed with profile: %+v", res)
	}
	if len(p.Footprints()) == 0 {
		t.Fatal("post-attach commit recorded no footprint")
	}
}
