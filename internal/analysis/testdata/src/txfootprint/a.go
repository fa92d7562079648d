// Testdata for the txfootprint analyzer. The capacity model is
// htm.DefaultConfig: a 512-line write buffer (WriteLines), a 4096-line
// soft read budget (ReadLinesSoft), and a 65536-line hard read-set limit
// (ReadLinesHard). Addresses are word indices, 8 words per line.
package txfootprint

import (
	"repro/internal/exec"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

// good: a handful of scalar accesses is nowhere near capacity.
func small(sys tm.System, id int, from, to mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		v := x.Read(from)
		x.Write(from, 0)
		x.Write(to, x.Read(to)+v)
	})
}

// good: a dense stride-1 scan of 1024 words touches ~129 lines — large,
// but comfortably inside every budget.
func denseScan(sys tm.System, id int, base mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		var sum uint64
		for i := 0; i < 1024; i++ {
			sum += x.Read(base + mem.Addr(i))
		}
		x.Write(base, sum)
	})
}

// bad: one full line written per iteration, 1024 iterations — double the
// 512-line write buffer. The fast path can never commit this.
func oversized(sys tm.System, id int, base mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) { // want `statically writes up to 1024 distinct lines, exceeding the 512-line HTM write buffer`
		for i := 0; i < 1024; i++ {
			x.Write(base+mem.Addr(i*8), 0)
		}
	})
}

// bad: 5000 read lines is past the 4096-line soft budget (but under the
// hard limit) — capacity aborts are likely, not certain.
func wideReader(sys tm.System, id int, base mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) { // want `statically reads up to 5000 distinct lines, past the 4096-line soft read budget`
		for i := 0; i < 5000; i++ {
			x.Read(base + mem.Addr(i*8))
		}
	})
}

// bad: 300 written lines fits the 512-line buffer in aggregate, but past
// half of it set-associativity evictions make aborts likely.
func setPressure(sys tm.System, id int, base mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) { // want `statically writes up to 300 distinct lines, past half the 512-line write buffer`
		for i := 0; i < 300; i++ {
			x.Write(base+mem.Addr(i*8), 1)
		}
	})
}

// bad: a data-dependent address list is unbounded, and the body declares
// no partition points.
func unbounded(sys tm.System, id int, addrs []mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) { // want `statically unbounded line footprint and declares no partition points`
		for _, a := range addrs {
			x.Write(a, 1)
		}
	})
}

// good: the same unbounded walk, but with Pause partition marks — the
// partitioned path splits it, which is the paper's answer to oversize.
func partitioned(sys tm.System, id int, addrs []mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		for _, a := range addrs {
			x.Write(a, 1)
			x.Pause()
		}
	})
}

// good: suppressed — the annotation routes the body to the fallback paths.
func deliberate(sys tm.System, id int, addrs []mem.Addr) {
	// parthtm:bigtx — region-growth workload, slow path by design
	sys.Atomic(id, func(x tm.Tx) {
		for _, a := range addrs {
			x.Write(a, 1)
		}
	})
}

// fill writes one line per call at a fixed offset from base.
func fill(x tm.Tx, base mem.Addr, k int) {
	x.Write(base+mem.Addr(k*8), 0)
	x.WriteLocal(base, uint64(k))
}

// bad: the interprocedural bound — fill's 2-line summary scaled by the
// 400-trip loop gives 800 written lines, past the 512-line buffer.
func helperLoop(sys tm.System, id int, base mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) { // want `statically writes up to 800 distinct lines, exceeding the 512-line HTM write buffer`
		for i := 0; i < 400; i++ {
			fill(x, base, i)
		}
	})
}

// good: the same helper called a handful of times stays tiny.
func helperFew(sys tm.System, id int, base mem.Addr) {
	sys.Atomic(id, func(x tm.Tx) {
		for i := 0; i < 4; i++ {
			fill(x, base, i)
		}
	})
}

// bad: only the Fast level runs under HTM, and this one writes 1024
// lines; the Mid level walking the same range is software and exempt.
func levels(base mem.Addr) exec.Txn {
	var ht *htm.Txn
	return exec.Txn{
		Fast: func() htm.Result { // want `fast-path level body statically writes up to 1024 distinct lines`
			for i := 0; i < 1024; i++ {
				ht.Write(base+mem.Addr(i*8), 0)
			}
			return htm.Result{}
		},
		Mid: func() bool {
			for i := 0; i < 1024; i++ {
				ht.Write(base+mem.Addr(i*8), 0)
			}
			return true
		},
	}
}

// bad: handing the transaction to a function value loses track of the
// footprint entirely.
func escapes(sys tm.System, id int, f func(tm.Tx)) {
	sys.Atomic(id, func(x tm.Tx) { // want `statically unbounded line footprint`
		f(x)
	})
}
