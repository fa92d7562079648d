// Testdata for the atomicmix analyzer.
package atomicmix

import "sync/atomic"

// good: the typed API — the only way to reach the word is atomically.
type cleanStats struct{ hits atomic.Uint64 }

func (s *cleanStats) hit() uint64 {
	s.hits.Add(1)
	return s.hits.Load()
}

// bad: the function API on a plain field; nothing stops reset below.
type dirtyStats struct{ misses uint64 }

func (s *dirtyStats) miss() { atomic.AddUint64(&s.misses, 1) } // want `call to atomic.AddUint64`

func (s *dirtyStats) reset() { s.misses = 0 }

func (s *dirtyStats) peekMisses() uint64 {
	return atomic.LoadUint64(&s.misses) // want `call to atomic.LoadUint64`
}

// bad: a package-level word accessed the same way.
var seq uint64

func next() uint64 { return atomic.AddUint64(&seq, 1) } // want `call to atomic.AddUint64`

func swap(p *uint64) bool {
	return atomic.CompareAndSwapUint64(p, 0, 1) // want `call to atomic.CompareAndSwapUint64`
}

// good: suppressed — the annotation claims every access goes through here.
type published struct{ n uint64 }

func (p *published) bump() {
	atomic.AddUint64(&p.n, 1) // parthtm:plain — interop with a C-layout struct
}
