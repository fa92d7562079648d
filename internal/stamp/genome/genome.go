// Package genome re-implements STAMP's genome: gene sequencing by segment
// deduplication and overlap matching. Phase 1 inserts every (duplicated)
// segment into a shared open-addressing hash set transactionally; phase 2
// links each unique segment to its overlap successor, claiming links
// transactionally. Transactions are short-to-medium with low contention —
// the Figure 5(i) shape.
package genome

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// Config describes a genome instance.
type Config struct {
	// Gene is the number of distinct segments in the underlying genome.
	Gene int
	// Segments is the number of (duplicated) reads sampled from the gene.
	Segments int
	// HashSlots is the open-addressing table size (power of two, > Gene).
	HashSlots int
	Seed      int64
}

// Default is a scaled-down equivalent of STAMP genome -g256 -s16 -n16384.
func Default() Config {
	return Config{Gene: 1024, Segments: 8192, HashSlots: 4096, Seed: 71}
}

// App is a genome instance.
type App struct {
	cfg Config
	sys tm.System

	reads []uint64 // sampled segment values (with duplicates)

	table mem.Addr // HashSlots words: 0 empty, else segment value
	links mem.Addr // HashSlots words: successor claims, parallel to table

	unique atomic.Uint64
	linked atomic.Uint64
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "genome" }

// MemWords implements stamp.App.
func (a *App) MemWords() int { return 2*a.cfg.HashSlots + 8*mem.LineWords }

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	cfg := a.cfg
	if cfg.HashSlots&(cfg.HashSlots-1) != 0 || cfg.HashSlots <= cfg.Gene {
		panic("genome: HashSlots must be a power of two larger than Gene")
	}
	m := sys.Memory()
	a.table = m.AllocAligned(cfg.HashSlots)
	a.links = m.AllocAligned(cfg.HashSlots)
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Segment values are encoded so that value v's overlap successor is
	// v+1 (the "next segment of the gene"): values 1..Gene.
	a.reads = make([]uint64, cfg.Segments)
	for i := range a.reads {
		a.reads[i] = uint64(rng.Intn(cfg.Gene)) + 1
	}
}

func hashOf(v uint64, mask int) int {
	return int((v * 0x9E3779B97F4A7C15 >> 33)) & mask
}

// insert adds v to the hash set (one transaction); reports whether v was
// new.
func (a *App) insert(id int, v uint64) bool {
	mask := a.cfg.HashSlots - 1
	var isNew bool
	a.sys.Atomic(id, func(x tm.Tx) {
		isNew = false
		h := hashOf(v, mask)
		for probe := 0; probe < a.cfg.HashSlots; probe++ {
			slot := a.table + mem.Addr((h+probe)&mask)
			cur := x.Read(slot)
			if cur == v {
				return // duplicate
			}
			if cur == 0 {
				x.Write(slot, v)
				isNew = true
				return
			}
			if probe%32 == 31 {
				x.Pause()
			}
		}
		panic("genome: hash table full")
	})
	return isNew
}

// lookup finds v's slot index, or -1 (one transaction).
func (a *App) lookup(id int, v uint64) int {
	mask := a.cfg.HashSlots - 1
	found := -1
	// The probe loop is bounded only by the runtime table size, but chains
	// terminate at the first empty slot, so the read set tracks the load
	// factor; a pathological full-table probe belongs on the fallback paths.
	a.sys.Atomic(id, func(x tm.Tx) {
		found = -1
		h := hashOf(v, mask)
		for probe := 0; probe < a.cfg.HashSlots; probe++ {
			idx := (h + probe) & mask
			cur := x.Read(a.table + mem.Addr(idx))
			if cur == v {
				found = idx
				return
			}
			if cur == 0 {
				return
			}
		}
	})
	return found
}

// Run implements stamp.App.
func (a *App) Run(threads int) {
	// Phase 1: deduplicate all reads into the hash set.
	perthread.Chunks(threads, len(a.reads), func(id, lo, hi int) {
		for i := lo; i < hi; i++ {
			if a.insert(id, a.reads[i]) {
				a.unique.Add(1)
			}
		}
	})

	// Phase 2: for every table slot holding v, claim the link to v+1 if
	// v+1 exists in the set (overlap matching).
	perthread.Chunks(threads, a.cfg.HashSlots, func(id, lo, hi int) {
		m := a.sys.Memory()
		for s := lo; s < hi; s++ {
			v := m.Load(a.table + mem.Addr(s)) // phase-1 output is stable now
			if v == 0 {
				continue
			}
			succ := a.lookup(id, v+1)
			if succ < 0 {
				continue
			}
			claimed := false
			slot := a.links + mem.Addr(s)
			a.sys.Atomic(id, func(x tm.Tx) {
				claimed = false
				if x.Read(slot) == 0 {
					x.Write(slot, uint64(succ)+1)
					claimed = true
				}
			})
			if claimed {
				a.linked.Add(1)
			}
		}
	})
}

// Validate implements stamp.App: the set contains each distinct read
// exactly once; every link points from v's slot to (v+1)'s slot.
func (a *App) Validate() error {
	m := a.sys.Memory()
	distinct := make(map[uint64]bool)
	for _, v := range a.reads {
		distinct[v] = true
	}
	inTable := make(map[uint64]int)
	for s := 0; s < a.cfg.HashSlots; s++ {
		if v := m.Load(a.table + mem.Addr(s)); v != 0 {
			if _, dup := inTable[v]; dup {
				return fmt.Errorf("genome: value %d stored twice", v)
			}
			inTable[v] = s
		}
	}
	if len(inTable) != len(distinct) {
		return fmt.Errorf("genome: table holds %d values, want %d", len(inTable), len(distinct))
	}
	if a.unique.Load() != uint64(len(distinct)) {
		return fmt.Errorf("genome: unique count %d, want %d", a.unique.Load(), len(distinct))
	}
	for v := range distinct {
		if _, ok := inTable[v]; !ok {
			return fmt.Errorf("genome: value %d missing from table", v)
		}
	}
	var links uint64
	for s := 0; s < a.cfg.HashSlots; s++ {
		l := m.Load(a.links + mem.Addr(s))
		if l == 0 {
			continue
		}
		links++
		v := m.Load(a.table + mem.Addr(s))
		succSlot := int(l) - 1
		succV := m.Load(a.table + mem.Addr(succSlot))
		if succV != v+1 {
			return fmt.Errorf("genome: slot %d (value %d) linked to value %d", s, v, succV)
		}
	}
	if links != a.linked.Load() {
		return fmt.Errorf("genome: %d links in memory, %d claimed", links, a.linked.Load())
	}
	return nil
}
