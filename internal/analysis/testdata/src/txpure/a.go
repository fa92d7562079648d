// Testdata for the txpure analyzer.
package txpure

import (
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/tm"
)

var hot uint64

// good: write-only captures are out-parameters, overwritten wholesale by
// whichever attempt commits.
func transfer(sys tm.System, id int, from, to mem.Addr) (moved uint64) {
	sys.Atomic(id, func(x tm.Tx) {
		v := x.Read(from)
		x.Write(from, 0)
		x.Write(to, x.Read(to)+v)
		moved = v
	})
	return moved
}

// bad: a read+write capture accumulates garbage across aborted attempts.
func leakySum(sys tm.System, id int, addrs []mem.Addr) uint64 {
	var sum uint64
	sys.Atomic(id, func(x tm.Tx) {
		for _, a := range addrs {
			sum += x.Read(a) // want `reads and writes captured variable .sum.`
		}
	})
	return sum
}

// bad: direct memory traffic bypasses the transaction.
func bypass(sys tm.System, id int, m *mem.Memory, a mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		m.Store(a, 1) // want `mem.Memory.Store directly`
	})
}

// bad: the body's effect depends on state no Tx.Read observed.
func impureRead(sys tm.System, id int, a mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		x.Write(a, hot) // want `reads package-level mutable variable .hot.`
	})
}

// bad: aborted attempts would leave their mark on package state.
func impureWrite(sys tm.System, id int, a mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		hot = x.Read(a) // want `writes package-level variable .hot.`
	})
}

// bad: exec.Txn levels are transaction bodies too.
func levels() exec.Txn {
	var retries int
	return exec.Txn{
		Mid: func() bool {
			retries++ // want `reads and writes captured variable .retries.`
			return retries < 8
		},
	}
}

// good: suppressed — the annotation claims the impurity is retry-safe.
func instrumented(sys tm.System, id int, a mem.Addr) int {
	var attempts int
	sys.Atomic(id, func(x tm.Tx) {
		attempts++ // parthtm:impure — attempt counting is the point
		x.Write(a, uint64(attempts))
	})
	return attempts
}

// bad: impurity hidden behind one level of local function indirection —
// the bound literal's statements are part of the body, and its captures
// are the body's captures.
func indirected(sys tm.System, id int, a mem.Addr) uint64 {
	var count uint64
	bump := func() { count++ } // want `reads and writes captured variable .count.`
	sys.Atomic(id, func(x tm.Tx) {
		x.Write(a, count)
		bump()
	})
	return count
}

// good: a locally bound pure helper adds nothing to the body.
func indirectedPure(sys tm.System, id int, from, to mem.Addr) {
	move := func(x tm.Tx) {
		v := x.Read(from)
		x.Write(to, v)
	}
	sys.Atomic(id, func(x tm.Tx) {
		move(x)
	})
}
