// Package tmtest provides conformance stress tests applied to every
// transactional system in the repository through the tm.System interface:
// atomicity (no lost updates), consistency (invariants preserved across
// partition points), and isolation under capacity- and time-limited
// workloads that force each system onto its fallback machinery.
package tmtest

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/norecrh"
	"repro/internal/perthread"
	"repro/internal/ringstm"
	"repro/internal/tm"
)

// Factory constructs a fresh system (with its own memory) for maxThreads
// threads over memWords words of simulated memory.
type Factory struct {
	Name string
	New  func(maxThreads, memWords int) tm.System
}

// testEngineConfig returns a deterministic engine model for conformance
// tests: generous but finite space budgets and no timer so that small test
// transactions never abort for resources unless a test asks for it.
func testEngineConfig() htm.Config {
	cfg := htm.DefaultConfig()
	cfg.Quantum = 0
	cfg.ReadEvictProb = 0
	return cfg
}

// Factories returns one factory per system under test, including the
// Part-HTM variants. Memories are sized up to fit protocol metadata (the
// 1024-entry ring alone occupies 40960 words).
func Factories() []Factory {
	pad := func(f func(n, w int) tm.System) func(n, w int) tm.System {
		return func(n, w int) tm.System {
			if w < 1<<17 {
				w = 1 << 17
			}
			return f(n, w)
		}
	}
	fs := []Factory{
		{"Part-HTM", func(n, w int) tm.System {
			eng := htm.New(mem.New(w), testEngineConfig())
			return core.New(eng, n, core.DefaultConfig())
		}},
		{"Part-HTM-no-fast", func(n, w int) tm.System {
			eng := htm.New(mem.New(w), testEngineConfig())
			cfg := core.DefaultConfig()
			cfg.NoFastPath = true
			return core.New(eng, n, cfg)
		}},
		{"Part-HTM-O", func(n, w int) tm.System {
			eng := htm.New(mem.New(2*w), testEngineConfig())
			cfg := core.DefaultConfig()
			cfg.Opaque = true
			return core.New(eng, n, cfg)
		}},
		{"HTM-GL", func(n, w int) tm.System {
			eng := htm.New(mem.New(w), testEngineConfig())
			return htmgl.New(eng, n, htmgl.DefaultConfig())
		}},
		{"NOrec", func(n, w int) tm.System {
			return norec.New(mem.New(w), n)
		}},
		{"RingSTM", func(n, w int) tm.System {
			return ringstm.New(mem.New(w), n, 1024)
		}},
		{"NOrecRH", func(n, w int) tm.System {
			eng := htm.New(mem.New(w), testEngineConfig())
			return norecrh.New(eng, n)
		}},
	}
	for i := range fs {
		fs[i].New = pad(fs[i].New)
	}
	return fs
}

// TinyHardwareFactories builds the HTM-based systems over a starved
// hardware model (4-line write budget, 8-line read budget, 600-cycle
// quantum) so that nearly every generated transaction exceeds some
// resource and exercises the fallback machinery.
func TinyHardwareFactories() []Factory {
	tiny := func() htm.Config {
		cfg := htm.DefaultConfig()
		cfg.WriteSets = 1
		cfg.WriteWays = 64
		cfg.WriteLines = 4
		cfg.ReadLinesSoft = 8
		cfg.ReadLinesHard = 8
		cfg.ReadEvictProb = 0
		cfg.Quantum = 600
		return cfg
	}
	return []Factory{
		{"Part-HTM", func(n, w int) tm.System {
			return core.New(htm.New(mem.New(w), tiny()), n, core.DefaultConfig())
		}},
		{"Part-HTM-O", func(n, w int) tm.System {
			cfg := core.DefaultConfig()
			cfg.Opaque = true
			return core.New(htm.New(mem.New(2*w), tiny()), n, cfg)
		}},
		{"HTM-GL", func(n, w int) tm.System {
			return htmgl.New(htm.New(mem.New(w), tiny()), n, htmgl.DefaultConfig())
		}},
		{"NOrecRH", func(n, w int) tm.System {
			return norecrh.New(htm.New(mem.New(w), tiny()), n)
		}},
	}
}

// RunAll runs f once per factory as a subtest.
func RunAll(t *testing.T, f func(t *testing.T, fac Factory)) {
	for _, fac := range Factories() {
		fac := fac
		t.Run(fac.Name, func(t *testing.T) { f(t, fac) })
	}
}

// CounterStress checks atomicity: concurrent increments must not be lost.
// It also holds the stats to exactly one commit per transaction: a
// tm.Counter is single-writer, so a counter bumped from a thread that does
// not own its shard loses updates, which -race cannot see (the cell is an
// atomic) but this count does.
func CounterStress(t *testing.T, sys tm.System, threads, perThread int) {
	t.Helper()
	a := sys.Memory().Alloc(1)
	perthread.Run(threads, func(id int) {
		for i := 0; i < perThread; i++ {
			sys.Atomic(id, func(x tm.Tx) {
				x.Write(a, x.Read(a)+1)
			})
		}
	})
	want := uint64(threads * perThread)
	if got := sys.Memory().Load(a); got != want {
		t.Fatalf("%s: counter = %d, want %d (lost updates)", sys.Name(), got, want)
	}
	if got := sys.Stats().Snapshot().Commits(); got != want {
		t.Fatalf("%s: stats commits = %d, want %d", sys.Name(), got, want)
	}
}

// BankStress checks snapshot consistency: random transfers preserve the
// total balance, and observers always see the invariant hold.
func BankStress(t *testing.T, sys tm.System, threads, perThread, accounts int, pauses bool) {
	t.Helper()
	m := sys.Memory()
	base := m.AllocLines(accounts) // one account per cache line
	const initBalance = 1000
	for i := 0; i < accounts; i++ {
		m.Store(base+mem.Addr(i*mem.LineWords), initBalance)
	}
	acct := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }

	var badSnapshots sync.Map
	perthread.Run(threads, func(id int) {
		rng := uint64(id)*0x9E3779B97F4A7C15 + 7
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 33
		}
		for i := 0; i < perThread; i++ {
			if i%4 == 3 {
				// Observer transaction: sum a window of accounts twice
				// with a partition point between; the two sums must
				// agree (the window total is only changed by balanced
				// transfers within it... it is not, transfers cross the
				// window) — so instead check the global invariant over
				// ALL accounts.
				// Body-local accumulator, published once: captured
				// variables must be write-only result slots because the
				// body may rerun on abort (enforced by parthtm-vet).
				var sum uint64
				sys.Atomic(id, func(x tm.Tx) {
					var s uint64
					for k := 0; k < accounts; k++ {
						s += x.Read(acct(k))
						if pauses && k == accounts/2 {
							x.Pause()
						}
					}
					sum = s
				})
				if sum != uint64(accounts*initBalance) {
					badSnapshots.Store(sum, true)
				}
				continue
			}
			from := int(next()) % accounts
			to := int(next()) % accounts
			amt := next() % 10
			sys.Atomic(id, func(x tm.Tx) {
				f := x.Read(acct(from))
				if pauses {
					x.Pause()
				}
				tv := x.Read(acct(to))
				if from != to && f >= amt {
					x.Write(acct(from), f-amt)
					if pauses {
						x.Pause()
					}
					x.Write(acct(to), tv+amt)
				}
			})
		}
	})

	badSnapshots.Range(func(k, _ any) bool {
		t.Errorf("%s: observer saw inconsistent total %v", sys.Name(), k)
		return true
	})
	var total uint64
	for i := 0; i < accounts; i++ {
		total += m.Load(acct(i))
	}
	if total != uint64(accounts*initBalance) {
		t.Fatalf("%s: total balance = %d, want %d", sys.Name(), total, accounts*initBalance)
	}
}

// LargeTxStress drives transactions whose write sets exceed the hardware
// write capacity, forcing every HTM-based system onto its fallback
// (Part-HTM: partitioned path; HTM-GL: global lock). Each transaction
// rotates a block of lines by adding a constant; the per-line invariant is
// that all words in a block stay equal.
func LargeTxStress(t *testing.T, sys tm.System, threads, perThread, linesPerTx int) {
	t.Helper()
	m := sys.Memory()
	blocks := threads // one block per thread is contention-free; overlap below
	base := m.AllocLines(blocks * linesPerTx)
	blockAddr := func(b, l int) mem.Addr {
		return base + mem.Addr((b*linesPerTx+l)*mem.LineWords)
	}
	var mu sync.Mutex
	var committedDivergence bool
	perthread.Run(threads, func(id int) {
		for i := 0; i < perThread; i++ {
			b := (id + i) % blocks // overlapping access across threads
			var diverged bool
			sys.Atomic(id, func(x tm.Tx) {
				// A doomed attempt of a non-opaque system may observe a
				// half-updated block (that is the anomaly Part-HTM-O
				// exists to remove), so divergence only counts if the
				// final — committed — execution of the body saw it.
				diverged = false
				v := x.Read(blockAddr(b, 0))
				for l := 0; l < linesPerTx; l++ {
					if got := x.Read(blockAddr(b, l)); got != v {
						diverged = true
					}
					x.Write(blockAddr(b, l), v+1)
					if l%8 == 7 {
						x.Pause()
					}
				}
			})
			if diverged {
				mu.Lock()
				committedDivergence = true
				mu.Unlock()
			}
		}
	})
	if committedDivergence {
		t.Fatalf("%s: a committed transaction observed a torn block", sys.Name())
	}
	// Every block's lines must agree after the dust settles.
	for b := 0; b < blocks; b++ {
		v := m.Load(blockAddr(b, 0))
		for l := 1; l < linesPerTx; l++ {
			if got := m.Load(blockAddr(b, l)); got != v {
				t.Fatalf("%s: block %d line %d = %d, want %d", sys.Name(), b, l, got, v)
			}
		}
	}
}

// LongTxStress drives transactions whose Work exceeds the timer quantum,
// forcing time-limited fallback, with Pause points that let Part-HTM keep
// them in hardware pieces.
func LongTxStress(t *testing.T, sys tm.System, threads, perThread int, workPerSeg int64, segs int) {
	t.Helper()
	m := sys.Memory()
	a := m.AllocLines(1)
	perthread.Run(threads, func(id int) {
		for i := 0; i < perThread; i++ {
			sys.Atomic(id, func(x tm.Tx) {
				v := x.Read(a)
				for s := 0; s < segs; s++ {
					x.Work(workPerSeg)
					x.Pause()
				}
				x.Write(a, v+1)
			})
		}
	})
	want := uint64(threads * perThread)
	if got := m.Load(a); got != want {
		t.Fatalf("%s: counter = %d, want %d", sys.Name(), got, want)
	}
}
