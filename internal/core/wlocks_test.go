package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/abort"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sig"
	"repro/internal/tm"
)

// wlocksWords reads domain d's write-locks signature out of memory.
func wlocksWords(s *System, d int) (out sig.Signature) {
	for i := range out {
		out[i] = s.m.Load(s.doms.Wlocks(d) + mem.Addr(i))
	}
	return out
}

// TestLinePublicationAgainstRelease pins why a sub-commit may write back
// whole signature lines it read. A holds the four lines in its read set and
// is about to publish a bit next to B's; B releases its bit with the
// non-transactional AndNot every global commit and abort uses.
//
// Release before A's commit: A is doomed, its publication never reaches
// memory, and the released bit stays clear — replace the WriteLine by a plain
// store of the line and the stale copy resurrects B's lock. Release after A's
// commit: both hold, A's bit set and B's clear.
func TestLinePublicationAgainstRelease(t *testing.T) {
	// Two addresses whose bits share a signature line but not a word, so
	// that A's write-back covers the word B releases.
	var aAddr, bAddr uint32
	for aAddr, bAddr = 1, 2; ; bAddr++ {
		ab, bb := sig.HashBit(aAddr), sig.HashBit(bAddr)
		if ab>>9 == bb>>9 && ab>>6 != bb>>6 {
			break
		}
	}
	var aSig, bSig sig.Signature
	aSig.Add(aAddr)
	bSig.Add(bAddr)

	// begin sets B's lock, then runs A up to the point where it has read the
	// signature.
	begin := func() (*System, *htm.Txn, *[sig.Words]uint64) {
		s := newSystem(2, 1<<17, nil, nil)
		for i, w := range bSig {
			if w != 0 {
				s.m.Store(s.doms.Wlocks(0)+mem.Addr(i), w)
			}
		}
		ht := s.eng.Begin(0)
		var wl [sig.Words]uint64
		s.readWriteLocks(ht, 0, &wl)
		if !bSig.IntersectsWords(wl[:]) {
			t.Fatal("A did not see B's lock")
		}
		return s, ht, &wl
	}

	t.Run("release before commit", func(t *testing.T) {
		s, ht, wl := begin()
		s.doms.ReleaseWlocks(0, &bSig)
		res, aborted := func() (res htm.Result, aborted bool) {
			defer func() { res, aborted = htm.AsAbort(recover()) }()
			s.publishWriteLocks(ht, 0, wl, &aSig)
			ht.Commit()
			return
		}()
		if !aborted || res.Reason != abort.Conflict {
			t.Fatalf("A committed over a release of a line it had read (aborted=%v, %+v)", aborted, res)
		}
		if got := wlocksWords(s, 0); !got.Empty() {
			t.Fatalf("write-locks signature after B's release and A's abort: %d bits set, want none (a resurrected or a leaked lock)", got.PopCount())
		}
	})

	t.Run("release after commit", func(t *testing.T) {
		s, ht, wl := begin()
		s.publishWriteLocks(ht, 0, wl, &aSig)
		ht.Commit()
		var both sig.Signature
		both.Union(&aSig)
		both.Union(&bSig)
		if got := wlocksWords(s, 0); !got.Equal(&both) {
			t.Fatal("after A's commit the signature is not A's bit beside B's")
		}
		s.doms.ReleaseWlocks(0, &bSig)
		if got := wlocksWords(s, 0); !got.Equal(&aSig) {
			t.Fatal("after B's release the signature is not exactly A's bit (a lost or a resurrected lock)")
		}
	})
}

// TestWriteLocksEmptyAtQuiescence: four threads run partitioned transactions
// over a few shared counters in two domains; every third transaction's first
// attempt is a forced global abort after its first segment has published
// locks, and lock conflicts add their own. Once they have all returned, no
// lock bit and no active count may be left anywhere.
func TestWriteLocksEmptyAtQuiescence(t *testing.T) {
	const threads, perThread, counters = 4, 150, 8
	s := newSystem(threads, 1<<18, nil, func(c *Config) {
		c.NoFastPath = true
		c.Domains = 2
	})
	var addrs [counters]mem.Addr
	for i := range addrs {
		addrs[i] = s.doms.AllocLinesIn(i%2, 1)
	}
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for i := 0; i < perThread; i++ {
				a, b, c := addrs[rng.Intn(counters)], addrs[rng.Intn(counters)], addrs[rng.Intn(counters)]
				attempt := 0
				s.Atomic(id, func(x tm.Tx) {
					attempt++
					x.Write(a, x.Read(a)+1)
					x.Pause()
					runtime.Gosched()
					if i%3 == 0 && attempt == 1 && x == tm.Tx(&s.threads[id].seg) && !s.threads[id].seg.replay {
						panic(globalAbortPanic{}) // not under the global lock, where the first attempt may also run
					}
					x.Write(b, x.Read(b)+1)
					x.Pause()
					x.Write(c, x.Read(c)+1)
				})
			}
		}(id)
	}
	wg.Wait()

	var sum uint64
	for _, a := range addrs {
		sum += s.m.Load(a)
	}
	if want := uint64(3 * threads * perThread); sum != want {
		t.Fatalf("counters sum to %d, want %d", sum, want)
	}
	for d := 0; d < s.nd; d++ {
		if got := wlocksWords(s, d); !got.Empty() {
			t.Errorf("domain %d: %d write-lock bits left at quiescence", d, got.PopCount())
		}
	}
	if got := s.m.Load(s.activeTx); got != 0 {
		t.Errorf("activeTx = %d at quiescence", got)
	}
	if st := s.Stats().Snapshot(); st.CommitsSW+st.CommitsGL != threads*perThread {
		t.Errorf("commits: %+v", st)
	}
}

// TestSubCommitFootprint: what a sub-HTM transaction of a 3-read, 20-write
// body holds, in monitored lines, and costs, in cycles.
//
// Part-HTM: publishing lock bits by the line changes the cost, not what is
// held. The twenty writes' bits land in all four signature lines; the lines
// are what they were when the bits were published word by word (7 read and 24
// written unsplit; 7 and 13, then 4 and 13, split), and the cycles are fewer
// (75 unsplit, where they were 121). The thread's learner keeps the largest
// footprint a segment committed with: 43 cycles of the split pair's 83.
//
// Part-HTM-O: a write locks its cell with one Overwrite, so a written cell's
// line is in the write set only. A segment of the only partitioned
// transaction reads the timestamp, activeTx and the three data lines, and no
// cell (5); it writes the twenty data lines and their cells (40). A segment
// of writes alone reads the timestamp and activeTx (2).
func TestSubCommitFootprint(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		opaque, split              bool
		readMax, readMin, writeMax int64
		cycles                     int64 // the larger segment's
	}{
		{name: "one segment", readMax: 7, readMin: 7, writeMax: 24, cycles: 75},
		{name: "two segments", split: true, readMax: 7, readMin: 4, writeMax: 13, cycles: 43},
		{name: "opaque/one segment", opaque: true, readMax: 5, readMin: 5, writeMax: 40, cycles: 125},
		{name: "opaque/two segments", opaque: true, split: true, readMax: 5, readMin: 2, writeMax: 20, cycles: 65},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(1, 1<<17, nil, func(c *Config) {
				c.NoFastPath = true
				c.Opaque = tc.opaque
			})
			p := prof.New(prof.Config{Sets: s.eng.Config().WriteSets})
			s.eng.SetProfile(p)
			base := s.Memory().AllocLines(24)
			s.Atomic(0, func(x tm.Tx) {
				var acc uint64
				for i := 0; i < 3; i++ {
					acc += x.Read(base + mem.Addr(i*mem.LineWords))
				}
				for i := 0; i < 20; i++ {
					if tc.split && i == 10 {
						x.Pause()
					}
					x.Write(base+mem.Addr((4+i)*mem.LineWords+1), acc+uint64(i))
				}
			})
			rows := p.Footprints()
			if len(rows) != 1 || rows[0].Class != prof.ClassName(prof.ClassSub) || rows[0].Outcome != prof.OutcomeName(abort.None) {
				t.Fatalf("want sub-HTM commits only, got %+v", rows)
			}
			r := rows[0]
			if r.ReadMax != tc.readMax || r.ReadP50 != tc.readMin || r.WriteMax != tc.writeMax {
				t.Errorf("sub-HTM transactions held up to %d (median %d) read and %d write lines, want %d (%d) and %d",
					r.ReadMax, r.ReadP50, r.WriteMax, tc.readMax, tc.readMin, tc.writeMax)
			}
			if got, want := s.threads[0].learn.fit, (footprint{tc.cycles, tc.readMax, tc.writeMax}); got != want {
				t.Errorf("the largest committed segment held %v, want %v", got, want)
			}
		})
	}
}

// TestSubCommitsPublishTheWriteSignature: two sub-HTM commits publish, line
// by line, exactly the signature of the addresses written, the second beside
// the first's bits, and the global commit releases every bit.
func TestSubCommitsPublishTheWriteSignature(t *testing.T) {
	s := newSystem(1, 1<<17, nil, func(c *Config) { c.NoFastPath = true })
	base := s.Memory().AllocLines(40)
	var want, parked sig.Signature
	s.Atomic(0, func(x tm.Tx) {
		for i := 0; i < 40; i++ {
			a := base + mem.Addr(i*mem.LineWords+i%mem.LineWords)
			want.Add(uint32(a))
			x.Write(a, uint64(i))
			if i == 19 {
				x.Pause() // a second segment publishes beside the first's bits
			}
		}
		x.Pause()
		parked = wlocksWords(s, 0)
	})
	if !parked.Equal(&want) {
		t.Errorf("the published write locks are not the written addresses' signature (%d bits, want %d)",
			parked.PopCount(), want.PopCount())
	}
	if got := wlocksWords(s, 0); !got.Empty() {
		t.Errorf("%d lock bits left after the commit", got.PopCount())
	}
	if st := s.Stats().Snapshot(); st.CommitsSW != 1 {
		t.Errorf("%+v", st)
	}
}
