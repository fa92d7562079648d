package core

import (
	"math/rand"
	"testing"

	"repro/internal/abort"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sig"
	"repro/internal/tm"
)

// noPlacement makes the write buffer one fully associative set, so that a
// capacity abort is about how many lines, never about which.
func noPlacement(lines int) func(*htm.Config) {
	return func(c *htm.Config) {
		c.WriteSets, c.WriteWays, c.WriteLines = 1, lines, lines
	}
}

// writeLines returns a body writing n consecutive lines from base, with a
// partition point after every pauseEvery of them (0: none).
func writeLines(base mem.Addr, n, pauseEvery int) func(tm.Tx) {
	return func(x tm.Tx) {
		for i := 0; i < n; i++ {
			x.Write(base+mem.Addr(i*mem.LineWords), uint64(i)+1)
			if pauseEvery > 0 && (i+1)%pauseEvery == 0 {
				x.Pause()
			}
		}
	}
}

// TestWriteCapacityAbortLeavesReadBudget: a segment that read nothing
// overflows the write buffer. That says nothing about reads: no read budget
// is learned, and the next transaction's read phase stays one sub-HTM
// transaction instead of being cut every 16 lines.
func TestWriteCapacityAbortLeavesReadBudget(t *testing.T) {
	s := newSystem(1, 1<<17, noPlacement(8), func(c *Config) { c.NoFastPath = true })
	base := s.Memory().AllocLines(64)
	before := s.threads[0].learn.base[dimReadLines]
	s.Atomic(0, writeLines(base, 24, 0))
	lim := s.threads[0].learn.base
	if lim[dimWriteLines] == 0 {
		t.Fatal("the write-buffer overflow taught no write budget")
	}
	if lim[dimReadLines] != before {
		t.Fatalf("a write-only segment's capacity abort moved the read budget %d -> %d", before, lim[dimReadLines])
	}
	commits := s.eng.Stats().Commits.Load()
	s.Atomic(0, func(x tm.Tx) {
		for i := 0; i < 64; i++ {
			x.Read(base + mem.Addr(i*mem.LineWords))
		}
	})
	if got := s.eng.Stats().Commits.Load() - commits; got != 1 {
		t.Fatalf("a 64-line read-only transaction ran as %d sub-HTM transactions, want 1", got)
	}
	if st := s.Stats().Snapshot(); st.CommitsGL != 0 {
		t.Fatalf("%+v", st)
	}
}

// TestInjectedCapacityAbortTeachesNoBudget: an abort the fault injector
// forced is not evidence about the hardware, because the injector picks its
// reason without looking at the footprint. An 8-line segment on a 16-line
// buffer whose commit is scripted to fail on capacity is retried, and the
// persistent budgets stay unknown.
func TestInjectedCapacityAbortTeachesNoBudget(t *testing.T) {
	s := newSystem(1, 1<<17, noPlacement(16), func(c *Config) { c.NoFastPath = true })
	s.eng.SetInjector(fault.New(fault.Config{Scripts: map[int][]fault.ScriptEvent{
		0: {{Site: fault.SiteHTMCommit, Reason: abort.Capacity, Count: 1}},
	}}))
	base := s.Memory().AllocLines(8)
	s.Atomic(0, writeLines(base, 8, 0))
	if lim := s.threads[0].learn.base; lim != (footprint{}) {
		t.Fatalf("an injected capacity abort moved the persistent budgets to %+v", lim)
	}
	if st := s.Stats().Snapshot(); st.FaultsInjected != 1 || st.CommitsSW != 1 {
		t.Fatalf("%+v", st)
	}
}

// TestBudgetsStayWithinAProbeOfWhatFit: budgets grow by probing, and a probe
// never goes more than one step past the largest footprint that has
// committed — which the hardware bounds. After one overflow and forty clean
// commits of small segments the budget is still a statement about the
// 16-line buffer, not a number that drifted to "unlimited".
func TestBudgetsStayWithinAProbeOfWhatFit(t *testing.T) {
	const hwLines = 16
	s := newSystem(1, 1<<17, noPlacement(hwLines), func(c *Config) { c.NoFastPath = true })
	base := s.Memory().AllocLines(40)
	s.Atomic(0, writeLines(base, 40, 0))
	if s.threads[0].learn.base[dimWriteLines] == 0 {
		t.Fatal("no write budget learned")
	}
	aborts := s.eng.Stats().Aborts()
	for i := 0; i < 40; i++ {
		s.Atomic(0, writeLines(base, 40, 2))
	}
	if got := s.eng.Stats().Aborts() - aborts; got != 0 {
		t.Fatalf("%d aborts in forty transactions of two-line segments", got)
	}
	th := s.threads[0]
	for d, b := range th.learn.base {
		if b > th.learn.fit[d]+probeStep(th.learn.fit[d]) {
			t.Errorf("dimension %d: budget %d is more than a probe step past the largest committed footprint %d", d, b, th.learn.fit[d])
		}
	}
	if got := s.threads[0].learn.base[dimWriteLines]; got > hwLines+hwLines/probeDiv {
		t.Fatalf("write budget %d after forty clean commits on a %d-line buffer", got, hwLines)
	}
}

// TestUnsplitTransactionConverges: 1200 writes with no partition point. The
// first transaction may spend three resource aborts finding a grain; after
// that, where nothing but the size of the buffer can fail a segment, the
// persistent budget sits just under what overflowed and transactions run
// clean — until a probe tries one step more, which costs one abort and
// doubles the wait before the next.
func TestUnsplitTransactionConverges(t *testing.T) {
	const writes = 1200
	t.Run("no placement", func(t *testing.T) {
		s := newSystem(1, 1<<18, noPlacement(512), func(c *Config) { c.NoFastPath = true })
		base := s.Memory().AllocLines(writes)
		st := s.eng.Stats()
		s.Atomic(0, writeLines(base, writes, 0))
		if got := st.Aborts(); got > 3 {
			t.Fatalf("first transaction: %d resource aborts, want at most 3", got)
		}
		first := st.Aborts()
		for i := 1; i < probeEveryMin; i++ {
			s.Atomic(0, writeLines(base, writes, 0))
		}
		if got := st.Aborts() - first; got != 0 {
			t.Fatalf("%d aborts in the %d transactions after the first, want 0: the budget did not converge in one abort", got, probeEveryMin-1)
		}
		commits := st.Commits.Load()
		s.Atomic(0, writeLines(base, writes, 0))
		if got := st.Commits.Load() - commits; got != 3 {
			t.Fatalf("a converged transaction ran as %d sub-HTM transactions, want 3 (1200 lines at just under 512)", got)
		}
		for i := 0; i < 40; i++ {
			s.Atomic(0, writeLines(base, writes, 0))
		}
		// Probes at clean commits 4, 12 and 28 after the first transaction.
		if got := st.Aborts() - first; got > 3 {
			t.Fatalf("%d aborts in 44 transactions after the first, want at most the 3 failed probes", got)
		}
		if snap := s.Stats().Snapshot(); snap.CommitsGL != 0 || snap.CommitsSW != 44+1 {
			t.Fatalf("%+v", snap)
		}
	})
	t.Run("default engine", func(t *testing.T) {
		s := newSystem(1, 1<<20, nil, func(c *Config) { c.NoFastPath = true })
		const arrayLines = 12500
		base := s.Memory().AllocLines(arrayLines)
		rng := rand.New(rand.NewSource(7))
		body := func(x tm.Tx) {
			for i := 0; i < writes; i++ {
				x.Write(base+mem.Addr(rng.Intn(arrayLines)*mem.LineWords), uint64(i))
			}
		}
		s.Atomic(0, body)
		if got := s.eng.Stats().Aborts(); got > 3 {
			t.Fatalf("first transaction: %d resource aborts, want at most 3", got)
		}
		for i := 0; i < 30; i++ {
			s.Atomic(0, body)
		}
		if snap := s.Stats().Snapshot(); snap.CommitsGL != 0 {
			t.Fatalf("%+v", snap)
		}
	})
}

// TestPlacementOverflowLeavesNextTransactionOnTheGrid: ten 128-line segments
// fit the 64-set, 8-way buffer except when nine lines fall in one set. That
// is placement, not size: the transaction it happens to retries smaller, and
// the next one runs its ten segments as if nothing had happened.
func TestPlacementOverflowLeavesNextTransactionOnTheGrid(t *testing.T) {
	const segs, grid = 10, 128
	s := newSystem(1, 1<<18, nil, func(c *Config) { c.NoFastPath = true })
	base := s.Memory().AllocLines(4096)
	line := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	sets := s.eng.Config().WriteSets
	body := func(unlucky bool) func(tm.Tx) {
		return func(x tm.Tx) {
			for i := 0; i < segs*grid; i++ {
				a := line(i)
				if j := i - 3*grid; unlucky && j >= 0 && j < 9 {
					a = line(2048 + j*sets) // nine lines of the fourth segment share a set
				}
				x.Write(a, uint64(i))
				if (i+1)%grid == 0 {
					x.Pause()
				}
			}
		}
	}
	st := s.eng.Stats()
	s.Atomic(0, body(false))
	if c, a := st.Commits.Load(), st.Aborts(); c != segs || a != 0 {
		t.Fatalf("well-placed transaction: %d sub-HTM commits and %d aborts, want %d and 0", c, a, segs)
	}
	s.Atomic(0, body(true))
	if got := st.AbortsCapacity.Load(); got != 1 {
		t.Fatalf("unlucky transaction: %d capacity aborts, want 1", got)
	}
	if lim := s.threads[0].learn.base; lim != (footprint{}) {
		t.Fatalf("one placement overflow moved the persistent budgets to %+v", lim)
	}
	commits := st.Commits.Load()
	s.Atomic(0, body(false))
	if got := st.Commits.Load() - commits; got != segs {
		t.Fatalf("the transaction after a placement overflow ran as %d sub-HTM transactions, want %d", got, segs)
	}
	if got := st.Aborts(); got != 1 {
		t.Fatalf("%d aborts in all, want 1", got)
	}
}

// TestFailureAtTheFloorStillShrinksTheRetry: a resource abort must make the
// retry strictly smaller. A Part-HTM segment at two domains, under a 16-line
// write buffer, aborted for capacity holding 117 cycles, 21 read lines and 16
// write lines against lim [116, 16, 14]. Its read lines were above all that
// had committed, so they alone were blamed, but their lim was at its 16-line
// floor, and the segment was retried unchanged, 15,723 times in one run. The
// write lines, which overflowed at the sub-commit with the signature lines
// it writes, must drop instead; the persistent write budget stays.
func TestFailureAtTheFloorStillShrinksTheRetry(t *testing.T) {
	b := newLearner()
	b.fit = footprint{dimCycles: 150, dimReadLines: 16, dimWriteLines: 16}
	b.base = footprint{dimCycles: 116, dimReadLines: 16, dimWriteLines: 14}
	b.begin()
	b.attempt(false)
	if !b.failed(capacityDims, footprint{dimCycles: 117, dimReadLines: 21, dimWriteLines: 16}, 2*sig.Lines, false) {
		t.Fatal("the learner says a segment whose write lines can still drop cannot shrink")
	}
	if want := (footprint{dimCycles: 116, dimReadLines: 16, dimWriteLines: 8}); b.lim != want {
		t.Fatalf("retry budgets = %v, want %v", b.lim, want)
	}
	if b.base[dimWriteLines] != 14 {
		t.Fatalf("a retry-only shrink moved the persistent write budget to %d", b.base[dimWriteLines])
	}
}

// TestFailureAtEveryFloorCannotShrink: a segment that fails for capacity
// with every line dimension it used at its floor would be retried as it is
// and fail the same way. The learner says it cannot shrink, every time, and
// the partitioned attempt ends at its first such abort instead of spending
// its sub-retries on the same segment.
func TestFailureAtEveryFloorCannotShrink(t *testing.T) {
	b := newLearner()
	b.base = footprint{dimCycles: 64, dimReadLines: 16, dimWriteLines: 2}
	b.begin()
	b.attempt(false)
	for i := 0; i < 3; i++ {
		if b.failed(capacityDims, footprint{dimCycles: 70, dimReadLines: 20, dimWriteLines: 3}, 0, false) {
			t.Fatalf("failure %d at every floor: the learner says the retry is smaller, at lim %v", i+1, b.lim)
		}
	}

	// In a system: a Part-HTM-O write holds a data line and a lock cell, two
	// lines, so under a one-line write buffer no segment that writes can
	// commit. The first abort drops the write limit to its floor; each abort
	// after it ends its partitioned attempt at once, where a retry of the
	// same segment would spend the attempt's sub-retries failing the same
	// way, and the contention manager sends the starving transaction to the
	// global lock.
	s := newSystem(1, 1<<17, noPlacement(1), func(c *Config) {
		c.Opaque = true
		c.NoFastPath = true
	})
	a := s.Memory().AllocLines(1)
	s.Atomic(0, func(x tm.Tx) { x.Write(a, 1) })
	if st := s.Stats().Snapshot(); st.CommitsGL != 1 {
		t.Fatalf("want one global-lock commit, got %+v", st)
	}
	if got, want := s.Engine().Stats().AbortsCapacity.Load(), uint64(1+schedule.StarveThreshold); got != want {
		t.Fatalf("%d capacity aborts, want %d: one to reach the floor, then one per partitioned attempt", got, want)
	}
}

// TestPauseUnderHalfBudgetRunsOn: once a budget is known, a partition point
// reached with less than half of it used is not taken, so a budget just under
// the workload's grid does not turn every segment into a full one and a
// sliver.
func TestPauseUnderHalfBudgetRunsOn(t *testing.T) {
	s := newSystem(1, 1<<17, noPlacement(32), func(c *Config) { c.NoFastPath = true })
	base := s.Memory().AllocLines(120)
	s.Atomic(0, writeLines(base, 120, 0)) // overflows at 32: the budget is 32-1-4
	lim := s.threads[0].learn.base[dimWriteLines]
	if lim != 27 {
		t.Fatalf("write budget = %d, want 27", lim)
	}
	st := s.eng.Stats()
	commits, aborts := st.Commits.Load(), st.Aborts()
	s.Atomic(0, writeLines(base, 120, 30)) // a grid of 30: 27 + 3 without the rule
	if got := st.Commits.Load() - commits; got != 5 {
		t.Fatalf("120 lines on a grid of 30 under a budget of 27 ran as %d sub-HTM transactions, want 5", got)
	}
	if got := st.Aborts() - aborts; got != 0 {
		t.Fatalf("%d aborts", got)
	}
}

// TestTinyResourcesKeepOffTheLock is the progress rule: whatever the budgets
// remember, a resource abort makes the retry strictly smaller, so on a buffer
// of a few lines or a quantum of a few accesses unsplit transactions of both
// variants still commit partitioned, never under the global lock.
func TestTinyResourcesKeepOffTheLock(t *testing.T) {
	engines := map[string]func(*htm.Config){
		"tiny buffer":      noPlacement(8),
		"tiny set buffer":  func(c *htm.Config) { c.WriteSets, c.WriteWays, c.WriteLines = 4, 3, 12 },
		"tiny quantum":     func(c *htm.Config) { c.Quantum = 200 },
		"tiny of each one": func(c *htm.Config) { noPlacement(8)(c); c.Quantum = 200 },
	}
	for name, eng := range engines {
		for _, opaque := range []bool{false, true} {
			s := newSystem(1, 1<<17, eng, func(c *Config) { c.Opaque = opaque })
			const lines, txns = 256, 60
			base := s.Memory().AllocLines(lines)
			rng := rand.New(rand.NewSource(3))
			var want [lines]uint64
			for i := 0; i < txns; i++ {
				var touched [40]int
				for j := range touched {
					touched[j] = rng.Intn(lines)
				}
				s.Atomic(0, func(x tm.Tx) {
					for _, l := range touched[:20] {
						x.Read(base + mem.Addr(l*mem.LineWords))
					}
					for _, l := range touched {
						a := base + mem.Addr(l*mem.LineWords)
						x.Write(a, x.Read(a)+1)
					}
				})
				for _, l := range touched {
					want[l]++
				}
			}
			for l, w := range want {
				if got := s.Memory().Load(base + mem.Addr(l*mem.LineWords)); got != w {
					t.Fatalf("%s, opaque=%v: line %d = %d, want %d", name, opaque, l, got, w)
				}
			}
			if st := s.Stats().Snapshot(); st.CommitsGL != 0 || st.CommitsSW+st.CommitsHTM != txns {
				t.Errorf("%s, opaque=%v: %+v", name, opaque, st)
			}
		}
	}
}

// countdownRef wraps the partitioned path's handle with a test-only
// reference for the budget countdown: before each live operation it makes
// the full footprint check the countdown stands in for, and after the
// operation it requires that the segment paused exactly when that check had
// reached a budget. Equal verdicts at every access give every committed
// segment the footprint, and the transaction the sub-HTM commit count, that
// a check at every access gives.
type countdownRef struct {
	tm.Tx
	tb *testing.T
	th *thread
	n  *countdownCounts
}

// countdownCounts says what a run exercised: live operations, the checks
// the countdown skipped, the pauses, the checked (Part-HTM-O checkCells)
// operations, and the budgets a resource abort lowered after a segment of
// the same attempt had committed. lim is the budgets the previous operation
// saw.
type countdownCounts struct {
	ops, skipped, pauses, checked, midDrops int
	lim                                     footprint
}

func (x countdownRef) live(op func()) {
	th := x.th
	want := false
	if th.ht != nil {
		if th.budLeft > 0 {
			x.n.skipped++
		}
		f := footprintOf(th.ht)
		for d, l := range th.learn.lim {
			want = want || (l > 0 && f[d] >= l)
		}
	}
	for d, l := range th.learn.lim {
		if prev := x.n.lim[d]; th.learn.segs > 0 && l > 0 && (prev == 0 || l < prev) {
			x.n.midDrops++
		}
	}
	x.n.lim = th.learn.lim
	segs := th.learn.segs
	op()
	x.n.ops++
	if th.checkCells {
		x.n.checked++
	}
	if got := th.learn.segs != segs; got != want {
		x.tb.Fatalf("operation %d: paused %v, a full budget check says %v", x.n.ops, got, want)
	}
	if want {
		x.n.pauses++
	}
}

func (x countdownRef) Read(a mem.Addr) (v uint64) {
	x.live(func() { v = x.Tx.Read(a) })
	return v
}
func (x countdownRef) Write(a mem.Addr, v uint64)      { x.live(func() { x.Tx.Write(a, v) }) }
func (x countdownRef) WriteLocal(a mem.Addr, v uint64) { x.live(func() { x.Tx.WriteLocal(a, v) }) }
func (x countdownRef) Work(c int64)                    { x.live(func() { x.Tx.Work(c) }) }

// TestBudgetCountdownPausesWhereAFullCheckWould: the countdown that spares
// most live accesses the footprint check must pause each segment at exactly
// the access where a check at every access would. Bodies mix reads, writes,
// thread-private writes and Work of sizes around one access's charge, with
// a few partition points, under a small write buffer, read set and quantum,
// so that cycle and line budgets are learned and lowered by resource aborts
// in the middle of transactions, on both variants, Part-HTM-O with and
// without lock-cell checks, and across two domains.
func TestBudgetCountdownPausesWhereAFullCheckWould(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opaque  bool
		checked bool // park a partitioned transaction so that segments check cells
		domains int
	}{
		{name: "Part-HTM"},
		{name: "Part-HTM-O", opaque: true},
		{name: "Part-HTM-O/checkCells", opaque: true, checked: true},
		{name: "Part-HTM/2 domains", domains: 2},
		{name: "Part-HTM-O/2 domains", opaque: true, domains: 2},
		{name: "Part-HTM-O/checkCells/2 domains", opaque: true, checked: true, domains: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := func(c *htm.Config) {
				noPlacement(24)(c)
				c.ReadLinesSoft, c.ReadLinesHard = 32, 32
				c.Quantum = 150
			}
			// No slow path: it would wait for the parked transaction forever.
			pol := schedule
			pol.MidAttempts, pol.RetryBudget, pol.StarveThreshold = 0, 0, 0
			s := newScheduled(2, 1<<17, eng, func(c *Config) {
				c.NoFastPath = true
				c.Opaque = tc.opaque
				c.Domains = tc.domains
			}, pol)
			// With two domains the last eight lines are the second's, and a
			// transaction touches them only in its last quarter, so a segment
			// well under way subscribes to the domain at its first touch.
			const lines, lines0, locals = 48, 40, 8
			var data [lines]mem.Addr
			for i := range data {
				data[i] = s.DomainSet().AllocLinesIn(min(i/lines0, s.Domains()-1), 1)
			}
			local := s.DomainSet().AllocLinesIn(0, locals)
			if tc.checked {
				release := parkPartitioned(t, s, 1, s.DomainSet().AllocLinesIn(0, 1), 1)
				defer func() {
					if !release() {
						t.Error("the parked transaction did not commit")
					}
				}()
			}
			a := s.opCycles
			works := []int64{1, a - 1, a, a + 1, 2*a + 1}
			type op struct {
				kind int // 0 read, 1 write, 2 local write, 3 work, 4 pause
				line int
				c    int64
			}
			rng := rand.New(rand.NewSource(5))
			model := map[mem.Addr]uint64{}
			n := &countdownCounts{}
			th := s.threads[0]
			for txn := 0; txn < 30; txn++ {
				// Each transaction leans on one resource, in turn: reads, writes,
				// then Work.
				w := [4]int{10, 10, 10, 10}
				w[txn%3] = 40
				ops := make([]op, 160)
				for i := range ops {
					line := rng.Intn(lines0)
					if i >= 120 {
						line = rng.Intn(lines)
					}
					k := rng.Intn(w[0] + w[1] + w[2] + w[3] + 2)
					switch {
					case k < w[0]:
						ops[i] = op{kind: 0, line: line}
					case k < w[0]+w[1]:
						ops[i] = op{kind: 1, line: line}
					case k < w[0]+w[1]+w[3]:
						ops[i] = op{kind: 2, line: rng.Intn(locals)}
					case k < w[0]+w[1]+w[3]+w[2]:
						ops[i] = op{kind: 3, c: works[rng.Intn(len(works))]}
					default:
						ops[i] = op{kind: 4}
					}
				}
				s.Atomic(0, func(x tm.Tx) {
					r := countdownRef{Tx: x, tb: t, th: th, n: n}
					var acc uint64
					for i, o := range ops {
						switch o.kind {
						case 0:
							acc += r.Read(data[o.line])
						case 1:
							r.Write(data[o.line], acc+uint64(i))
						case 2:
							r.WriteLocal(local+mem.Addr(o.line*mem.LineWords), uint64(i))
						case 3:
							r.Work(o.c)
						case 4:
							r.Pause()
						}
					}
				})
				var acc uint64
				for i, o := range ops {
					switch o.kind {
					case 0:
						acc += model[data[o.line]]
					case 1:
						model[data[o.line]] = acc + uint64(i)
					}
				}
			}
			for i, a := range data {
				if got := s.Memory().Load(a); got != model[a] {
					t.Fatalf("line %d = %d, want %d", i, got, model[a])
				}
			}
			if st := s.Stats().Snapshot(); st.CommitsGL != 0 || st.CommitsSW != 30 {
				t.Fatalf("want 30 partitioned commits, got %+v", st)
			}
			if tc.domains == 2 && th.ds.Touched != 3 {
				t.Fatalf("the last transaction touched domains %b, want both", th.ds.Touched)
			}
			t.Logf("%+v", *n)
			if n.skipped == 0 || n.pauses == 0 || n.midDrops == 0 {
				t.Fatalf("the run did not exercise the countdown: %+v", *n)
			}
			if tc.checked != (n.checked > 0) {
				t.Fatalf("%d operations ran in segments that check cells, want some: %v", n.checked, tc.checked)
			}
		})
	}
}
