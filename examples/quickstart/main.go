// Quickstart: concurrent bank transfers on Part-HTM.
//
// Builds a simulated memory and best-effort HTM engine, creates a Part-HTM
// system, and runs concurrent transfer transactions. Small transfers commit
// on the hardware fast path; a periodic full-audit transaction reads every
// account — too big a read set for one hardware transaction on a scaled-
// down cache model — and is transparently committed on the partitioned
// path instead of serializing the bank behind a global lock.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

const (
	accounts    = 512
	initBalance = 1000
	workers     = 4
	transfers   = 2000
)

func main() {
	// 1. Simulated memory and a best-effort HTM with a deliberately small
	//    read budget so the audit transaction cannot fit in hardware.
	m := mem.New(1 << 20)
	ecfg := htm.DefaultConfig()
	ecfg.ReadLinesSoft = 64
	ecfg.ReadLinesHard = 128
	eng := htm.New(m, ecfg)

	// 2. Part-HTM on top.
	sys := core.New(eng, workers, core.DefaultConfig())

	// 3. The bank: one account per cache line.
	base := m.AllocLines(accounts)
	acct := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineWords) }
	for i := 0; i < accounts; i++ {
		m.Store(acct(i), initBalance)
	}

	// 4. Concurrent transfers plus periodic audits.
	perthread.Run(workers, func(id int) {
		rng := rand.New(rand.NewSource(int64(id) + 7))
		for i := 0; i < transfers; i++ {
			if i%100 == 99 {
				// Full audit: reads all 512 account lines. Far beyond
				// the hardware read budget, so Part-HTM partitions it.
				// Accumulate in a body-local and publish once: the body
				// may rerun on abort, so captured variables must be
				// write-only result slots (enforced by parthtm-vet).
				var total uint64
				sys.Atomic(id, func(x tm.Tx) {
					var t uint64
					for k := 0; k < accounts; k++ {
						t += x.Read(acct(k))
						if k%64 == 63 {
							x.Pause() // partition point
						}
					}
					total = t
				})
				if total != accounts*initBalance {
					panic(fmt.Sprintf("audit saw inconsistent total %d", total))
				}
				continue
			}
			from, to := rng.Intn(accounts), rng.Intn(accounts)
			amount := uint64(rng.Intn(10))
			sys.Atomic(id, func(x tm.Tx) {
				f := x.Read(acct(from))
				t := x.Read(acct(to))
				if from != to && f >= amount {
					x.Write(acct(from), f-amount)
					x.Write(acct(to), t+amount)
				}
			})
		}
	})

	// 5. Report.
	var total uint64
	for i := 0; i < accounts; i++ {
		total += m.Load(acct(i))
	}
	st := sys.Stats().Snapshot()
	fmt.Printf("final total balance: %d (expected %d)\n", total, accounts*initBalance)
	fmt.Printf("commits: fast(HTM)=%d partitioned(SW)=%d global-lock=%d\n",
		st.CommitsHTM, st.CommitsSW, st.CommitsGL)
	fmt.Printf("aborts: conflict=%d capacity=%d explicit=%d other=%d\n",
		st.AbortsConflict, st.AbortsCapacity, st.AbortsExplicit, st.AbortsOther)
	if total != accounts*initBalance {
		panic("balance invariant violated")
	}
	if st.CommitsSW == 0 {
		panic("expected the audits to use the partitioned path")
	}
	fmt.Println("ok: audits committed on the partitioned path, transfers in hardware")
}
