package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/governor"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/tm"
	"repro/internal/trace"
)

// The ledger prices each layer from outside, by timing calls into its public
// functions. A row is one small frozen slice of such calls; a pass runs every
// row once, each between yardstick slices, and a metric is built from the
// medians of its rows over the passes. Per-access metrics are differences:
// (a transaction with N accesses − one with none) / N.

// ledgerBeta is the sensitivity every ledger row is normalised with: the
// rows are short runs of the same lock-per-access calls the mimic kernel
// copies, and none was calibrated on its own.
const ledgerBeta = 1

const (
	ledgerN      = 32   // accesses per transaction, one cache line each
	ledgerTxns   = 48   // transactions per slice
	ledgerAddrs  = 2048 // calls per slice of the cheap word-level rows
	ledgerWindow = 64   // ring entries one validate slice scans
)

// row is one ledger slice. run returns the raw ns of the part it measures; a
// row that measures two parts of the same calls (a transaction's accesses and
// its commit) returns both.
type row struct {
	run     func() [2]float64
	samples [2][]float64
}

type ledger struct {
	rows  map[string]*row
	order []string
}

func (l *ledger) add(name string, run func() [2]float64) {
	l.rows[name] = &row{run: run}
	l.order = append(l.order, name)
}

// timed adapts a function measured as a whole.
func timed(f func()) func() [2]float64 {
	return func() [2]float64 {
		t0 := time.Now()
		f()
		return [2]float64{float64(time.Since(t0))}
	}
}

// pass runs every row once.
func (l *ledger) pass(h *host) {
	h.begin()
	for _, name := range l.order {
		r := l.rows[name]
		parts := r.run()
		h.normalise(ledgerBeta, 0, &parts[0], &parts[1])
		r.samples[0] = append(r.samples[0], parts[0])
		r.samples[1] = append(r.samples[1], parts[1])
	}
}

// med is the median of part i of a row, per slice.
func (l *ledger) med(name string, i int) float64 { return median(l.rows[name].samples[i]) }

func newLedger() *ledger {
	l := &ledger{rows: map[string]*row{}}
	rng := rand.New(rand.NewSource(1)) // the ledger's inputs do not follow -seed
	l.addMem(rng)
	l.addHTM()
	l.addSig(rng)
	l.addRing()
	l.addDomain(rng)
	l.addExec()
	l.addSystems()
	return l
}

func (l *ledger) addMem(rng *rand.Rand) {
	m := mem.New(arrayWords + 2*mem.LineWords)
	base := m.AllocAligned(arrayWords)
	// Each row walks its own random addresses, so neither finds the other's
	// lines warm.
	random := func() []mem.Addr {
		addrs := make([]mem.Addr, ledgerAddrs)
		for i := range addrs {
			addrs[i] = base + mem.Addr(rng.Intn(arrayWords))
		}
		return addrs
	}
	loads, stores := random(), random()
	var sink uint64
	l.add("mem.load", timed(func() {
		for _, a := range loads {
			sink += m.Load(a)
		}
	}))
	l.add("mem.store", timed(func() {
		for _, a := range stores {
			m.Store(a, sink)
		}
	}))
}

// lines returns n addresses one cache line apart.
func lines(base mem.Addr, n int) []mem.Addr {
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = base + mem.Addr(i*mem.LineWords)
	}
	return out
}

// addHTM times the engine through Begin/Commit with clock reads around the
// accesses and around the commit; the empty row carries the same clock reads,
// so they cancel in every difference.
func (l *ledger) addHTM() {
	m := mem.New(1 << 12)
	eng := htm.New(m, htm.DefaultConfig())
	addrs := lines(m.AllocLines(ledgerN), ledgerN)
	l.add("htm.begin_commit", timed(func() {
		for i := 0; i < ledgerTxns; i++ {
			eng.Begin(0).Commit()
		}
	}))
	txns := func(body func(t *htm.Txn)) func() [2]float64 {
		return func() (parts [2]float64) {
			for i := 0; i < ledgerTxns; i++ {
				t := eng.Begin(0)
				a := time.Now()
				body(t)
				b := time.Now()
				t.Commit()
				parts[0] += float64(b.Sub(a))
				parts[1] += float64(time.Since(b))
			}
			return parts
		}
	}
	reads := func(t *htm.Txn) {
		for _, a := range addrs {
			t.Read(a)
		}
	}
	writes := func(t *htm.Txn) {
		for _, a := range addrs {
			t.Write(a, 1)
		}
	}
	l.add("htm.empty", txns(func(*htm.Txn) {}))
	l.add("htm.reads", txns(reads))
	l.add("htm.reads_twice", txns(func(t *htm.Txn) { reads(t); reads(t) }))
	l.add("htm.writes", txns(writes))
	l.add("htm.writes_twice", txns(func(t *htm.Txn) { writes(t); writes(t) }))
}

// sparseSigs returns two signatures of 16 addresses each that share no bit.
func sparseSigs(rng *rand.Rand) (a, b sig.Signature) {
	for {
		a.Clear()
		b.Clear()
		for i := 0; i < 16; i++ {
			a.Add(rng.Uint32())
			b.Add(rng.Uint32())
		}
		if !a.Intersects(&b) {
			return a, b
		}
	}
}

func (l *ledger) addSig(rng *rand.Rand) {
	addrs := make([]uint32, ledgerAddrs)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(arrayWords))
	}
	var s sig.Signature
	l.add("sig.add", timed(func() {
		s.Clear()
		for _, a := range addrs {
			s.Add(a)
		}
	}))
	a, b := sparseSigs(rng)
	hits := 0
	l.add("sig.intersects", timed(func() {
		for i := 0; i < ledgerAddrs; i++ {
			if a.Intersects(&b) {
				hits++
			}
		}
	}))
}

func (l *ledger) addRing() {
	m := mem.New(1 << 16)
	eng := htm.New(m, htm.DefaultConfig())
	rg := ring.New(m, 1024)
	rng := rand.New(rand.NewSource(2))
	pub, readSig := sparseSigs(rng)
	// The software and hardware rows publish to the same ring, one
	// timestamp after another, so the window validate scans is always full.
	ts := uint64(0)
	publishSW := func(n int) {
		for i := 0; i < n; i++ {
			ts++
			rg.PublishSW(ts, &pub)
		}
		m.Store(rg.TimestampAddr(), ts)
	}
	publishSW(ledgerWindow)
	l.add("ring.publish_sw", timed(func() { publishSW(ledgerTxns) }))
	l.add("ring.publish_htm", timed(func() {
		for i := 0; i < ledgerTxns; i++ {
			t := eng.Begin(0)
			next := t.Read(rg.TimestampAddr()) + 1
			t.Write(rg.TimestampAddr(), next)
			rg.PublishHTM(t, next, &pub)
			t.Commit()
		}
		ts += ledgerTxns
	}))
	l.add("ring.validate", timed(func() {
		for i := 0; i < ledgerTxns; i++ {
			if !rg.Validate(&readSig, ts-ledgerWindow, ts) {
				panic("ledger: disjoint signatures failed validation")
			}
		}
	}))
}

// addDomain times routing on two domains and the commit helpers the way
// core's globalCommit calls them: claim, publish, move the start past the
// own entry; across domains, in ascending order and then one Validate.
func (l *ledger) addDomain(rng *rand.Rand) {
	pub, readSig := sparseSigs(rng)

	d1 := domain.New(mem.New(1<<16), domain.Config{N: 1, RingSize: 1024})
	var start uint64
	l.add("domain.claim_publish_n1", timed(func() {
		for i := 0; i < ledgerTxns; i++ {
			ts, ok, _ := d1.ClaimTimestamp(0, &readSig, &start)
			if !ok {
				panic("ledger: uncontended claim failed")
			}
			d1.Publish(0, ts, &pub)
			start = ts
		}
	}))

	d2 := domain.New(mem.New(1<<17), domain.Config{N: 2, RingSize: 1024})
	var stats tm.Stats
	st := domain.NewTxnState(2, stats.Shard(0))
	st.Read[0], st.Read[1] = readSig, readSig
	l.add("domain.claim_publish_cross", timed(func() {
		for i := 0; i < ledgerTxns; i++ {
			st.Touched, st.Wrote = 3, 3
			for d := 0; d < 2; d++ {
				ts, ok, _ := d2.ClaimTimestamp(d, &st.Read[d], &st.Start[d])
				if !ok {
					panic("ledger: uncontended claim failed")
				}
				d2.Publish(d, ts, &pub)
				st.Start[d] = ts
			}
			if ok, _ := d2.Validate(st); !ok {
				panic("ledger: uncontended cross-domain validation failed")
			}
		}
	}))

	arenas := [2]mem.Addr{d2.AllocLinesIn(0, domain.ChunkLines), d2.AllocLinesIn(1, domain.ChunkLines)}
	addrs := make([]mem.Addr, ledgerAddrs)
	for i := range addrs {
		addrs[i] = arenas[i&1] + mem.Addr(rng.Intn(domain.ChunkWords))
	}
	routed := 0
	l.add("domain.of", timed(func() {
		for _, a := range addrs {
			routed += d2.Of(a)
		}
	}))
}

func (l *ledger) addExec() {
	pol := exec.Policy{ // Part-HTM's schedule at core.DefaultConfig
		FastAttempts: 5, StopFastOnResource: true, MidAttempts: 5, GateMid: true,
		Backoff: true, MaxBackoff: 100 * time.Microsecond, RetryBudget: 24,
		StarveThreshold: 3, LemmingWaitSpins: 4096, DegradeThreshold: 12,
	}
	txn := exec.Txn{
		Fast: func() htm.Result { return htm.Result{Committed: true} },
		Mid:  func() bool { return true },
		Slow: func() {},
	}
	empty := func(attach bool) func() {
		stats := new(tm.Stats)
		r := exec.New(pol, stats, func() bool { return true })
		if attach {
			r.SetTrace(trace.NewSink(0))
			r.SetGovernor(governor.New(governor.DefaultConfig()))
			r.SetProfile(prof.New(prof.Config{}))
		}
		return func() {
			for i := 0; i < ledgerAddrs; i++ {
				r.Run(0, &txn)
			}
		}
	}
	l.add("exec.run_empty", timed(empty(false)))
	l.add("exec.run_empty_attached", timed(empty(true)))
}

// addSystems times whole transactions of fixed shapes on the four
// configurations the per-access metrics name.
func (l *ledger) addSystems() {
	nofast := core.DefaultConfig()
	nofast.NoFastPath = true
	for _, s := range []struct {
		prefix, name string
		cfg          *core.Config
	}{
		{"core.fast", "Part-HTM", nil},
		{"core.sub", "Part-HTM", &nofast},
		{"core.opaque", "Part-HTM-O", nil},
		{"htmgl", "HTM-GL", nil},
	} {
		sys := harness.Build(s.name, harness.BuildOptions{
			DataWords: (ledgerN + 2) * mem.LineWords, Threads: 1, Seed: 1, Core: s.cfg,
		})
		addrs := lines(sys.Memory().AllocLines(ledgerN+1), ledgerN+1)
		first, rest := addrs[0], addrs[1:]
		shape := func(body func(tm.Tx)) func() [2]float64 {
			return timed(func() {
				for i := 0; i < ledgerTxns; i++ {
					sys.Atomic(0, body)
				}
			})
		}
		l.add(s.prefix+".empty", shape(func(tm.Tx) {}))
		l.add(s.prefix+".reads", shape(func(x tm.Tx) {
			for _, a := range rest {
				x.Read(a)
			}
		}))
		l.add(s.prefix+".write1", shape(func(x tm.Tx) { x.Write(first, 1) }))
		l.add(s.prefix+".writes", shape(func(x tm.Tx) {
			x.Write(first, 1)
			for _, a := range rest {
				x.Write(a, 1)
			}
		}))
		if s.prefix == "core.sub" {
			l.add(s.prefix+".reads_paused", shape(func(x tm.Tx) {
				for _, a := range rest {
					x.Read(a)
					x.Pause()
				}
			}))
		}
	}
}

// metrics derives the ledger's per-layer metrics, host-normalised ns each.
func (l *ledger) metrics() map[string]float64 {
	const n, txns, calls = ledgerN, ledgerTxns, ledgerAddrs
	perCall := func(row string) float64 { return l.med(row, 0) / calls }
	perTxn := func(row string) float64 { return l.med(row, 0) / txns }
	// perAccess is (the row with n accesses − its base row) / n, per
	// transaction.
	perAccess := func(row, base string, part int) float64 {
		return (l.med(row, part) - l.med(base, part)) / (txns * n)
	}
	out := map[string]float64{
		"mem.load_ns":  perCall("mem.load"),
		"mem.store_ns": perCall("mem.store"),

		"htm.begin_commit_ns":           perTxn("htm.begin_commit"),
		"htm.read_first_ns":             perAccess("htm.reads", "htm.empty", 0),
		"htm.read_hit_ns":               perAccess("htm.reads_twice", "htm.reads", 0),
		"htm.write_first_ns":            perAccess("htm.writes", "htm.empty", 0),
		"htm.write_hit_ns":              perAccess("htm.writes_twice", "htm.writes", 0),
		"htm.commit_per_wline_ns":       perAccess("htm.writes", "htm.empty", 1),
		"sig.add_ns":                    perCall("sig.add"),
		"sig.intersects_ns":             perCall("sig.intersects"),
		"ring.publish_sw_ns":            perTxn("ring.publish_sw"),
		"ring.publish_htm_ns":           perTxn("ring.publish_htm") - perTxn("htm.begin_commit"),
		"ring.validate_entry_ns":        perTxn("ring.validate") / ledgerWindow,
		"domain.of_ns":                  perCall("domain.of"),
		"domain.claim_publish_n1_ns":    perTxn("domain.claim_publish_n1"),
		"domain.claim_publish_cross_ns": perTxn("domain.claim_publish_cross"),
		"exec.run_empty_ns":             perCall("exec.run_empty"),
		"exec.run_empty_attached_ns":    perCall("exec.run_empty_attached"),

		"core.tx_empty_ns":     perTxn("core.fast.empty"),
		"core.first_write_ns":  perTxn("core.fast.write1") - perTxn("core.fast.empty"),
		"core.fast_read_ns":    perAccess("core.fast.reads", "core.fast.empty", 0),
		"core.fast_write_ns":   perAccess("core.fast.writes", "core.fast.write1", 0),
		"core.sub_read_ns":     perAccess("core.sub.reads", "core.sub.empty", 0),
		"core.sub_write_ns":    perAccess("core.sub.writes", "core.sub.write1", 0),
		"core.pause_ns":        perAccess("core.sub.reads_paused", "core.sub.reads", 0),
		"core.opaque_read_ns":  perAccess("core.opaque.reads", "core.opaque.empty", 0),
		"core.opaque_write_ns": perAccess("core.opaque.writes", "core.opaque.write1", 0),

		"htmgl.tx_empty_ns": perTxn("htmgl.empty"),
		"htmgl.read_ns":     perAccess("htmgl.reads", "htmgl.empty", 0),
		"htmgl.write_ns":    perAccess("htmgl.writes", "htmgl.write1", 0),
	}
	return out
}
