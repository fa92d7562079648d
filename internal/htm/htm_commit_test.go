package htm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// commitSink keeps BenchmarkCommit's HeldWord loads.
var commitSink uint64

// BenchmarkCommit times a transaction that writes n words, one per line, and
// commits, in ns per transaction: through Write, whose lines Commit loads in
// one pass before its first locked instruction, and through Overwrite, whose
// replaced words the caller reads back with HeldWord before Commit, as the
// partitioned path's undo log does. The lines are drawn at random from 32 MiB
// of words, more than a core's L2, so each first touch misses as the
// benchmark workloads' random lines do; the j-th line of a transaction falls
// in cache set j, so no draw overflows the write buffer. The cost of a line
// is the difference between two values of n over their difference.
func BenchmarkCommit(b *testing.B) {
	const lines = 1 << 19
	e := newTestEngine((lines+1)*mem.LineWords, nil)
	m := e.Memory()
	base := m.AllocLines(lines)
	for l := 0; l < lines; l++ {
		m.RawStore(base+mem.Addr(l*mem.LineWords), 0) // fault the pages in
	}
	sets := e.Config().WriteSets
	rows := make([]int, 1<<16) // a line's row: the line is row*sets + its set
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		rows[i] = rng.Intn(lines / sets)
	}
	addr := func(k, j int) mem.Addr {
		return base + mem.Addr((rows[k&(len(rows)-1)]*sets+j)*mem.LineWords)
	}
	for _, n := range []int{1, 10, 40} {
		b.Run(fmt.Sprintf("Write/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tx := e.Begin(0)
				for j := 0; j < n; j++ {
					tx.Write(addr(i*n+j, j), uint64(i))
				}
				tx.Commit()
			}
		})
		b.Run(fmt.Sprintf("Overwrite/n=%d", n), func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				tx := e.Begin(0)
				for j := 0; j < n; j++ {
					tx.Overwrite(addr(i*n+j, j), uint64(i))
				}
				for j := 0; j < n; j++ {
					sum += tx.HeldWord(addr(i*n+j, j))
				}
				tx.Commit()
			}
			commitSink = sum
		})
	}
}
