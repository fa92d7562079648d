package tmtest

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/tm"
)

// newShardedSystem builds a Part-HTM system with n memory domains on the
// partitioned path (no fast path, so every transaction exercises the
// software cross-domain commit machinery under test).
func newShardedSystem(t *testing.T, n, threads int, opaque bool) *core.System {
	t.Helper()
	words := 1 << 18
	cfg := core.DefaultConfig()
	cfg.NoFastPath = true
	cfg.Domains = n
	cfg.Opaque = opaque
	if opaque {
		words *= 2
	}
	eng := htm.New(mem.New(words), testEngineConfig())
	return core.New(eng, threads, cfg)
}

// TestCrossDomainLostUpdate is the cross-domain atomicity oracle: every
// transaction increments one counter in domain 0 and one in domain 1 (with
// a partition point between the two), so each commit must stitch both
// domains' rings. Any lost update on either side means the two-domain
// publication was not atomic.
func TestCrossDomainLostUpdate(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		name := "plain"
		if opaque {
			name = "opaque"
		}
		t.Run(name, func(t *testing.T) {
			const threads, perThread = 4, 250
			sys := newShardedSystem(t, 2, threads, opaque)
			ds := sys.DomainSet()
			a := ds.AllocLinesIn(0, 1)
			b := ds.AllocLinesIn(1, 1)
			if ds.Of(a) != 0 || ds.Of(b) != 1 {
				t.Fatalf("routing: Of(a)=%d Of(b)=%d", ds.Of(a), ds.Of(b))
			}
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						sys.Atomic(id, func(x tm.Tx) {
							x.Write(a, x.Read(a)+1)
							x.Pause()
							x.Write(b, x.Read(b)+1)
						})
					}
				}(w)
			}
			wg.Wait()
			want := uint64(threads * perThread)
			m := sys.Memory()
			if got := m.Load(a); got != want {
				t.Fatalf("domain-0 counter = %d, want %d (lost updates)", got, want)
			}
			if got := m.Load(b); got != want {
				t.Fatalf("domain-1 counter = %d, want %d (lost updates)", got, want)
			}
			st := sys.Stats().Snapshot()
			if st.CrossDomainCommits == 0 {
				t.Fatal("no cross-domain commits recorded — the oracle did not exercise the cross-domain path")
			}
		})
	}
}

// TestCrossDomainWriteSkew probes serializability across the domain
// boundary: x lives in domain 0 and y in domain 1; transaction A writes x
// only if y is zero, transaction B writes y only if x is zero. Each is
// read-only in one domain and writes the other — exactly the shape where a
// missing post-publish validation of the read-only domain would let both
// commit (write skew: x and y both set in one round).
func TestCrossDomainWriteSkew(t *testing.T) {
	const rounds = 400
	sys := newShardedSystem(t, 2, 2, false)
	ds := sys.DomainSet()
	x := ds.AllocLinesIn(0, 1)
	y := ds.AllocLinesIn(1, 1)
	m := sys.Memory()

	for r := 0; r < rounds; r++ {
		m.Store(x, 0)
		m.Store(y, 0)
		var start, wg sync.WaitGroup
		start.Add(1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			start.Wait()
			sys.Atomic(0, func(tx tm.Tx) {
				if tx.Read(y) == 0 {
					tx.Write(x, 1)
				}
			})
		}()
		go func() {
			defer wg.Done()
			start.Wait()
			sys.Atomic(1, func(tx tm.Tx) {
				if tx.Read(x) == 0 {
					tx.Write(y, 1)
				}
			})
		}()
		start.Done()
		wg.Wait()
		if m.Load(x) == 1 && m.Load(y) == 1 {
			t.Fatalf("round %d: write skew — both x and y set", r)
		}
	}
}

// TestCrossDomainOppositeOrderNoDeadlock is the deterministic
// deadlock-freedom test: two threads repeatedly run transactions touching
// domains {0, 1} in opposite body order (one writes domain 0 then domain 1,
// the other domain 1 then domain 0). A claimed timestamp is always
// published before the committer blocks on anything else, so no committer
// waits while holding an unpublished claim and the pairs must always drain,
// whatever order the commit visits its domains in; a watchdog converts a
// wedged pair into a failure. Conservation is checked at the end.
func TestCrossDomainOppositeOrderNoDeadlock(t *testing.T) {
	const pairs = 300
	sys := newShardedSystem(t, 2, 2, false)
	ds := sys.DomainSet()
	a := ds.AllocLinesIn(0, 1)
	b := ds.AllocLinesIn(1, 1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				sys.Atomic(0, func(x tm.Tx) {
					x.Write(a, x.Read(a)+1)
					x.Pause()
					x.Write(b, x.Read(b)+1)
				})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				sys.Atomic(1, func(x tm.Tx) {
					x.Write(b, x.Read(b)+1)
					x.Pause()
					x.Write(a, x.Read(a)+1)
				})
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("opposite-order cross-domain pairs wedged (deadlock)")
	}
	want := uint64(2 * pairs)
	m := sys.Memory()
	if got := m.Load(a); got != want {
		t.Fatalf("counter a = %d, want %d", got, want)
	}
	if got := m.Load(b); got != want {
		t.Fatalf("counter b = %d, want %d", got, want)
	}
}

// TestShardedSingleDomainTxns: on a sharded topology, transactions whose
// footprints stay inside one domain still interleave correctly with
// cross-domain traffic touching the same counters.
func TestShardedMixedTraffic(t *testing.T) {
	const threads, perThread = 4, 200
	sys := newShardedSystem(t, 4, threads, false)
	ds := sys.DomainSet()
	ctr := make([]mem.Addr, 4)
	for d := range ctr {
		ctr[d] = ds.AllocLinesIn(d, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			home := ctr[id%4]
			next := ctr[(id+1)%4]
			for i := 0; i < perThread; i++ {
				if i%3 == 0 {
					// Cross-domain: move a unit from home to neighbour.
					sys.Atomic(id, func(x tm.Tx) {
						x.Write(home, x.Read(home)+1)
						x.Pause()
						x.Write(next, x.Read(next)+1)
					})
				} else {
					sys.Atomic(id, func(x tm.Tx) {
						x.Write(home, x.Read(home)+2)
					})
				}
			}
		}(w)
	}
	wg.Wait()
	m := sys.Memory()
	var total uint64
	for _, c := range ctr {
		total += m.Load(c)
	}
	// Per thread: ceil(perThread/3) cross ops add 2 each; the rest add 2.
	want := uint64(threads * perThread * 2)
	if total != want {
		t.Fatalf("grand total = %d, want %d", total, want)
	}
}
