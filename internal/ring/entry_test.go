package ring

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sig"
)

// publisher is one of the two ways an entry gets into the ring.
type publisher func(ts uint64, s *sig.Signature)

// publishers returns the software and the hardware publisher of a fresh
// ring of the given size.
func publishers(t *testing.T, size int) (*Ring, [2]publisher) {
	m := mem.New(1 << 16)
	eng := htm.New(m, htm.DefaultConfig())
	r := New(m, size)
	return r, [2]publisher{
		r.PublishSW,
		func(ts uint64, s *sig.Signature) {
			t.Helper()
			if res := eng.Execute(0, func(tx *htm.Txn) { r.PublishHTM(tx, ts, s) }); !res.Committed {
				t.Fatalf("hardware publication of %d aborted: %+v", ts, res)
			}
		},
	}
}

// sigOf builds the signature with exactly the given bits.
func sigOf(bits ...uint32) (s sig.Signature) {
	for _, b := range bits {
		s.AddBit(b)
	}
	return s
}

// firstBits is the signature with bits 0, step, 2*step, ... (n of them).
func firstBits(n int, step uint32) (s sig.Signature) {
	for i := 0; i < n; i++ {
		s.AddBit(uint32(i) * step)
	}
	return s
}

// randomBits is a signature of n distinct random bits.
func randomBits(rng *rand.Rand, n int) (s sig.Signature) {
	for _, b := range rng.Perm(sig.Bits)[:n] {
		s.AddBit(uint32(b))
	}
	return s
}

// checkEntry fails unless ReadEntry(ts) returns exactly want, whatever dst
// held before.
func checkEntry(t *testing.T, r *Ring, ts uint64, want *sig.Signature) {
	t.Helper()
	var got sig.Signature
	for i := range got {
		got[i] = ^uint64(0)
	}
	if !r.ReadEntry(ts, got[:]) {
		t.Fatalf("ReadEntry(%d) reported rollover", ts)
	}
	if got != *want {
		t.Fatalf("ReadEntry(%d) of a %d-bit signature returned %d bits:\n got %x\nwant %x",
			ts, want.PopCount(), got.PopCount(), got, *want)
	}
}

// roundTrip publishes s into one slot of a 2-entry ring, by each publisher,
// over and under entries of the other form and of the densest compact form:
// every generation must read back as exactly what it published, so no bit of
// an earlier occupant — a stale compact word past the new terminator, a
// stale signature line under a compact header — survives a lap.
func roundTrip(t *testing.T, s *sig.Signature) {
	t.Helper()
	full, thirty := firstBits(sig.Bits, 1), firstBits(compactBits, 67)
	var empty sig.Signature
	laps := []*sig.Signature{&full, s, &full, s, &thirty, s, &full}
	for first := 0; first < 2; first++ {
		r, pubs := publishers(t, 2)
		ts := uint64(0)
		for i, lap := range laps {
			pub := pubs[(first+i)%2]
			ts++
			pub(ts, lap) // the odd slot laps; the even one keeps the gate moving
			checkEntry(t, r, ts, lap)
			ts++
			pub(ts, &empty)
			checkEntry(t, r, ts, &empty)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name string
		s    sig.Signature
	}{
		{"empty", sig.Signature{}},
		{"bit 0", sigOf(0)},
		{"bit 2047", sigOf(sig.Bits - 1)},
		{"five bits, one full word", firstBits(5, 401)},
		{"30 bits, the last compact form", firstBits(compactBits, 64)},
		{"31 bits, the first full form", firstBits(compactBits+1, 64)},
		{"2048 bits", firstBits(sig.Bits, 1)},
	} {
		t.Run(c.name, func(t *testing.T) { roundTrip(t, &c.s) })
	}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 64; n++ {
		s := randomBits(rng, n)
		roundTrip(t, &s)
	}
}

// compactReference is compact as it was first written, one branch per
// signature word: compact must return what it returns, fields, used and ok.
func compactReference(s *sig.Signature, f *[fieldWords]uint64) (used int, ok bool) {
	w, shift := 0, uint(0)
	for i, word := range s {
		for ; word != 0; word &= word - 1 {
			if w == fieldWords {
				return 0, false
			}
			f[w] |= uint64(i<<6+bits.TrailingZeros64(word)+1) << shift
			if shift += fieldBits; shift == fieldsPerWord*fieldBits {
				w, shift = w+1, 0
			}
		}
	}
	return min(w+1, fieldWords), true
}

// checkCompact fails unless compact and compactReference agree on s.
func checkCompact(t *testing.T, s *sig.Signature) {
	t.Helper()
	var got, want [fieldWords]uint64
	used, ok := compact(s, &got)
	wantUsed, wantOK := compactReference(s, &want)
	if got != want || used != wantUsed || ok != wantOK {
		t.Fatalf("compact of a %d-bit signature = (%x, %d, %v), reference (%x, %d, %v)",
			s.PopCount(), got, used, ok, want, wantUsed, wantOK)
	}
}

func TestCompactMatchesReference(t *testing.T) {
	for _, s := range []sig.Signature{
		{},
		sigOf(0),
		sigOf(sig.Bits - 1),
		firstBits(compactBits, 64),   // 30 bits, one per word: the last compact form
		firstBits(compactBits+1, 64), // 31 bits: the first full form
		firstBits(compactBits, 1),    // 30 bits in one word
		firstBits(sig.Bits, 1),       // dense
	} {
		checkCompact(t, &s)
	}
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 64; n++ {
		s := randomBits(rng, n)
		checkCompact(t, &s)
	}
}

// TestCompactFormBoundary pins which form a population gets, by what a
// publication leaves in the entry's lines.
func TestCompactFormBoundary(t *testing.T) {
	for _, c := range []struct {
		bits, wantUsed int
		compact        bool
	}{{0, 1, true}, {4, 1, true}, {5, 2, true}, {29, 6, true}, {30, 6, true}, {31, 0, false}} {
		s := firstBits(c.bits, 3)
		var f [fieldWords]uint64
		used, ok := compact(&s, &f)
		if ok != c.compact || (ok && used != c.wantUsed) {
			t.Errorf("%d bits: compact = (%d, %v), want (%d, %v)", c.bits, used, ok, c.wantUsed, c.compact)
		}
		r, pubs := publishers(t, 2)
		for i, pub := range pubs {
			ts := uint64(i + 1)
			pub(ts, &s)
			flagged := r.m.Load(r.SeqAddr(ts)+offFields)&fullFlag != 0
			lines := sig.Signature{}
			for w := range lines {
				lines[w] = r.m.Load(r.SigAddr(ts) + mem.Addr(w))
			}
			if flagged == c.compact || lines.Empty() != c.compact {
				t.Errorf("%d bits, publisher %d: full flag %v, signature lines empty %v", c.bits, i, flagged, lines.Empty())
			}
		}
	}
}

// TestValidateDetailMixedForms: over a window whose entries alternate between
// the two forms and the two publishers, ValidateDetail agrees with a reference
// that intersects the filter with the signatures as they were published.
func TestValidateDetailMixedForms(t *testing.T) {
	const size = 8
	rng := rand.New(rand.NewSource(23))
	r, pubs := publishers(t, size)
	var orig [size + 1]sig.Signature
	for ts := uint64(1); ts <= size; ts++ {
		n := 1 + rng.Intn(compactBits) // compact
		if ts%2 == 0 {
			n = compactBits + 1 + rng.Intn(40) // full
		}
		orig[ts] = randomBits(rng, n)
		pubs[(ts/2)%2](ts, &orig[ts])
	}
	passed, failed := 0, 0
	for trial := 0; trial < 2000; trial++ {
		a := randomBits(rng, rng.Intn(24))
		from := uint64(rng.Intn(size + 1))
		to := from + uint64(rng.Intn(size+1-int(from)))
		want := true
		for ts := from + 1; ts <= to; ts++ {
			want = want && !a.Intersects(&orig[ts])
		}
		got, rollover := r.ValidateDetail(&a, from, to)
		if got != want || rollover {
			t.Fatalf("ValidateDetail over (%d,%d] = (%v, rollover %v), the published signatures say %v", from, to, got, rollover, want)
		}
		if got {
			passed++
		} else {
			failed++
		}
	}
	if passed < 100 || failed < 100 {
		t.Fatalf("trials are one-sided: %d passed, %d failed", passed, failed)
	}
}

// bitsToFuzz encodes a signature's bits as FuzzEntryRoundTrip reads them.
func bitsToFuzz(s sig.Signature) []byte {
	var out []byte
	for b := uint32(0); b < sig.Bits; b++ {
		if s[b>>6]&(1<<(b&63)) != 0 {
			out = binary.LittleEndian.AppendUint16(out, uint16(b))
		}
	}
	return out
}

// FuzzEntryRoundTrip: whatever set of bits a signature has, compact encodes
// it as compactReference does, and both publishers store it so that
// ReadEntry returns exactly those bits, on a slot lapped through both forms.
func FuzzEntryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bitsToFuzz(sigOf(7)))
	f.Add(bitsToFuzz(firstBits(compactBits, 64)))
	f.Add(bitsToFuzz(firstBits(compactBits+1, 64)))
	f.Add(bitsToFuzz(firstBits(sig.Bits, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s sig.Signature
		for ; len(data) >= 2; data = data[2:] {
			s.AddBit(uint32(binary.LittleEndian.Uint16(data)) % sig.Bits)
		}
		checkCompact(t, &s)
		roundTrip(t, &s)
	})
}
