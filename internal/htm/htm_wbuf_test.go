package htm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// newWriteBufferEngine returns an engine whose write-capacity model never
// fires, so a test can fill the write buffer well past its initial index.
func newWriteBufferEngine(words int) *Engine {
	return newTestEngine(words, func(c *Config) {
		c.WriteWays = 255
		c.WriteLines = 0
	})
}

// driveWriteBuffer decodes data into transactions on slot 0 — three bytes
// per step: Write, Read, Overwrite, Add, commit or abort on one of addrs —
// and checks every step against a map model: reads return the transaction's
// own value or else memory's, an overwritten word's HeldWord returns
// memory's, an add returns what a read would plus its operand, the buffer keeps first-write order across overwrites, a commit
// leaves memory equal to the model and an abort leaves it untouched. It
// returns the number of transactions finished.
func driveWriteBuffer(t testing.TB, e *Engine, addrs []mem.Addr, data []byte) (txns int) {
	t.Helper()
	m := e.Memory()
	committed := make(map[mem.Addr]uint64, len(addrs))
	for _, a := range addrs {
		committed[a] = m.Load(a)
	}
	local := map[mem.Addr]uint64{}
	var order []mem.Addr
	next := uint64(1)

	tx := e.Begin(0)
	see := func(a mem.Addr) uint64 {
		if v, ok := local[a]; ok {
			return v
		}
		return committed[a]
	}
	put := func(a mem.Addr, v uint64) {
		if _, ok := local[a]; !ok {
			order = append(order, a)
		}
		local[a] = v
	}
	finish := func(commit bool) {
		if len(tx.wb) != len(order) {
			t.Fatalf("txn %d: buffer holds %d words, model %d", txns, len(tx.wb), len(order))
		}
		for i, a := range order {
			if w := tx.wb[i]; w.addr != a || w.val != local[a] {
				t.Fatalf("txn %d: buffer[%d] = {%d %d}, model {%d %d}", txns, i, w.addr, w.val, a, local[a])
			}
		}
		if commit {
			tx.Commit()
			for a, v := range local {
				committed[a] = v
			}
		} else {
			tx.Cancel()
		}
		for _, a := range addrs {
			if got := m.Load(a); got != committed[a] {
				t.Fatalf("txn %d (commit=%v): memory[%d] = %d, model %d", txns, commit, a, got, committed[a])
			}
		}
		clear(local)
		order = order[:0]
		txns++
		tx = e.Begin(0)
	}
	for ; len(data) >= 3; data = data[3:] {
		a := addrs[(int(data[1])<<8|int(data[2]))%len(addrs)]
		switch op := data[0] % 18; {
		case op < 6:
			tx.Write(a, next)
			put(a, next)
			next++
		case op < 10:
			if got, want := tx.Read(a), see(a); got != want {
				t.Fatalf("txn %d: Read(%d) = %d, model %d", txns, a, got, want)
			}
		case op < 14:
			tx.Overwrite(a, next)
			if got, want := tx.HeldWord(a), committed[a]; got != want {
				t.Fatalf("txn %d: HeldWord(%d) after Overwrite = %d, model %d", txns, a, got, want)
			}
			put(a, next)
			next++
		case op < 16:
			want := see(a) + next
			if got := tx.Add(a, next); got != want {
				t.Fatalf("txn %d: Add(%d, %d) = %d, model %d", txns, a, next, got, want)
			}
			put(a, want)
			next++
		default:
			finish(op == 16)
		}
	}
	finish(true)
	tx.Cancel()
	return txns
}

// spreadAddrs returns n word addresses over the given number of freshly
// allocated lines: one word on every line first, then second words.
func spreadAddrs(m *mem.Memory, n, lines int) []mem.Addr {
	base := m.AllocLines(lines)
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = base + mem.Addr(i%lines*mem.LineWords+i/lines)
	}
	return addrs
}

func TestWriteBuffer(t *testing.T) {
	t.Run("growth", func(t *testing.T) {
		// 600 words on 520 lines: the index doubles four times from its
		// initial 64 slots, and every word stays reachable through it.
		e := newWriteBufferEngine(1 << 14)
		addrs := spreadAddrs(e.Memory(), 600, 520)
		tx := e.Begin(0)
		for i, a := range addrs {
			tx.Write(a, uint64(i)+1)
		}
		if len(tx.wbIdx) < 2*len(addrs) {
			t.Fatalf("index has %d slots for %d words", len(tx.wbIdx), len(addrs))
		}
		for i, a := range addrs {
			if got := tx.Read(a); got != uint64(i)+1 {
				t.Fatalf("Read(%d) = %d after growth, want %d", a, got, i+1)
			}
		}
		tx.Commit()
		for i, a := range addrs {
			if got := e.Memory().Load(a); got != uint64(i)+1 {
				t.Fatalf("memory[%d] = %d, want %d", a, got, i+1)
			}
		}
	})

	t.Run("overwrite keeps first-write position", func(t *testing.T) {
		e := newWriteBufferEngine(1024)
		a := e.Memory().AllocLines(3)
		b, c := a+mem.LineWords, a+2*mem.LineWords
		tx := e.Begin(0)
		tx.Write(a, 1)
		tx.Write(b, 2)
		tx.Write(c, 3)
		tx.Write(a, 4)
		tx.Overwrite(b, 5)
		want := []wbEntry{{4, a, true}, {5, b, true}, {3, c, true}}
		if !slices.Equal(tx.wb, want) {
			t.Fatalf("buffer = %+v, want %+v", tx.wb, want)
		}
		tx.Commit()
	})

	t.Run("only a Write makes Commit load", func(t *testing.T) {
		// Overwrite's caller loads its lines (HeldWord) and Add loads its
		// own, so a transaction that wrote through them alone has nothing
		// for Commit's pass to load, and a partitioned segment pays nothing
		// for it.
		e := newWriteBufferEngine(1024)
		a := e.Memory().AllocLines(2)
		tx := e.Begin(0)
		tx.Overwrite(a, 1)
		tx.Add(a+mem.LineWords, 2)
		if tx.cold {
			t.Fatal("Overwrite and Add made the transaction cold")
		}
		tx.Write(a+1, 3)
		if !tx.cold {
			t.Fatal("Write left the transaction not cold")
		}
		tx.Commit()
		tx = e.Begin(0)
		if tx.cold {
			t.Fatal("the slot's next transaction kept the last one's cold flag")
		}
		tx.Cancel()
	})

	t.Run("random sequences across recycles", func(t *testing.T) {
		// One slot, so one Txn object and one index, reused by every
		// transaction: stale generations must read as empty each time.
		e := newWriteBufferEngine(1 << 12)
		addrs := spreadAddrs(e.Memory(), 200, 120)
		rng := rand.New(rand.NewSource(1))
		data := make([]byte, 3*40_000)
		rng.Read(data)
		if txns := driveWriteBuffer(t, e, addrs, data); txns < 1000 {
			t.Fatalf("only %d transactions, want >= 1000 recycles of the slot", txns)
		}
	})

	t.Run("generation wrap", func(t *testing.T) {
		e := newWriteBufferEngine(1024)
		addrs := spreadAddrs(e.Memory(), 24, 24)
		e.Begin(0).Commit() // leave a Txn object to recycle
		e.recycled[0].wbGen = math.MaxUint32 - 1
		// Each transaction writes its own third of the addresses, so a slot
		// surviving from an earlier generation would show up as a foreign
		// buffered word.
		for round := 0; round < 6; round++ {
			tx := e.Begin(0)
			if round == 1 && tx.wbGen != 1 {
				t.Fatalf("generation after the wrap = %d, want 1", tx.wbGen)
			}
			for i, a := range addrs {
				if i%3 == round%3 {
					tx.Write(a, uint64(100*round+i))
				}
			}
			for i, a := range addrs {
				want := e.mem.RawLoad(a) // a Load would doom the writer
				if i%3 == round%3 {
					want = uint64(100*round + i)
				}
				if got := tx.Read(a); got != want {
					t.Fatalf("round %d: Read(addrs[%d]) = %d, want %d", round, i, got, want)
				}
			}
			if len(tx.wb) != len(addrs)/3 {
				t.Fatalf("round %d: %d buffered words, want %d", round, len(tx.wb), len(addrs)/3)
			}
			tx.Commit()
		}
	})

	t.Run("steady state allocates nothing", func(t *testing.T) {
		e := newWriteBufferEngine(1 << 12)
		addrs := spreadAddrs(e.Memory(), 128, 128)
		run := func() {
			tx := e.Begin(0)
			for i, a := range addrs {
				tx.Write(a, uint64(i))
			}
			tx.Commit()
		}
		run() // grows the buffer and its index
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Fatalf("%v allocations per 128-write transaction, want 0", n)
		}
	})
}

func FuzzWriteBuffer(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 0, 0, 14, 0, 0, 6, 0, 0, 16, 0, 0, 7, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 17, 0, 0, 6, 0, 1, 14, 0, 1, 10, 0, 1})
	seed := make([]byte, 3*400)
	rand.New(rand.NewSource(2)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newWriteBufferEngine(1 << 12)
		driveWriteBuffer(t, e, spreadAddrs(e.Memory(), 200, 120), data)
	})
}
