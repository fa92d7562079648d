package sig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	if Bits != 2048 || Words != 32 || Lines != 4 {
		t.Fatalf("signature geometry changed: Bits=%d Words=%d Lines=%d", Bits, Words, Lines)
	}
}

func TestAddTest(t *testing.T) {
	var s Signature
	if s.Test(42) {
		t.Fatal("empty signature reported membership")
	}
	s.Add(42)
	if !s.Test(42) {
		t.Fatal("no false negative allowed: added address not found")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	var s Signature
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint32, 500)
	for i := range addrs {
		addrs[i] = rng.Uint32()
		s.Add(addrs[i])
	}
	for _, a := range addrs {
		if !s.Test(a) {
			t.Fatalf("address %d added but Test is false", a)
		}
	}
}

func TestHashBitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		b := HashBit(rng.Uint32())
		if b >= Bits {
			t.Fatalf("HashBit returned %d >= %d", b, Bits)
		}
	}
}

func TestHashBitSpreadsNeighbours(t *testing.T) {
	// Consecutive addresses (array elements) must not all collapse onto a
	// handful of bits, or every array workload would self-conflict.
	seen := make(map[uint32]bool)
	for a := uint32(1); a <= 256; a++ {
		seen[HashBit(a)] = true
	}
	if len(seen) < 200 {
		t.Fatalf("256 consecutive addresses map to only %d distinct bits", len(seen))
	}
}

func TestClearEmpty(t *testing.T) {
	var s Signature
	if !s.Empty() {
		t.Fatal("zero signature not Empty")
	}
	s.Add(1)
	s.Add(99)
	if s.Empty() {
		t.Fatal("non-zero signature reported Empty")
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear did not empty the signature")
	}
}

func TestIntersects(t *testing.T) {
	var a, b Signature
	a.Add(10)
	b.Add(20)
	if HashBit(10) != HashBit(20) && a.Intersects(&b) {
		t.Fatal("disjoint signatures intersect")
	}
	b.Add(10)
	if !a.Intersects(&b) {
		t.Fatal("overlapping signatures do not intersect")
	}
}

func TestIntersectsWords(t *testing.T) {
	var a Signature
	a.Add(10)
	w := make([]uint64, Words)
	if a.IntersectsWords(w) {
		t.Fatal("intersects all-zero words")
	}
	b := HashBit(10)
	w[b>>6] = 1 << (b & 63)
	if !a.IntersectsWords(w) {
		t.Fatal("does not intersect matching words")
	}
}

func TestUnionAndNot(t *testing.T) {
	var a, b, c Signature
	a.Add(1)
	b.Add(2)
	a.Union(&b)
	if !a.Test(1) || !a.Test(2) {
		t.Fatal("union lost a member")
	}
	// a &^ b should retain 1 and drop 2 (assuming no collision).
	if HashBit(1) == HashBit(2) {
		t.Skip("hash collision between test addresses")
	}
	a.AndNot(&b, &c)
	if !c.Test(1) || c.Test(2) {
		t.Fatal("AndNot result wrong")
	}
}

func TestPopCountEqualCopy(t *testing.T) {
	var a, b Signature
	a.Add(3)
	a.Add(4)
	want := 2
	if HashBit(3) == HashBit(4) {
		want = 1
	}
	if got := a.PopCount(); got != want {
		t.Fatalf("PopCount = %d, want %d", got, want)
	}
	b.CopyFrom(&a)
	if !a.Equal(&b) {
		t.Fatal("copy not Equal to original")
	}
	b.Add(77777)
	if a.Equal(&b) && HashBit(77777) != HashBit(3) && HashBit(77777) != HashBit(4) {
		t.Fatal("Equal after divergence")
	}
}

func TestAddBit(t *testing.T) {
	var s Signature
	s.AddBit(0)
	s.AddBit(2047)
	if s[0]&1 == 0 || s[Words-1]>>63 == 0 {
		t.Fatal("AddBit boundary bits not set")
	}
	if got := s.PopCount(); got != 2 {
		t.Fatalf("PopCount = %d, want 2", got)
	}
}

func TestCollisionFree(t *testing.T) {
	if !CollisionFree([]uint32{}) {
		t.Fatal("empty set should be collision free")
	}
	// Find a genuine collision pair by brute force to validate the negative
	// case.
	byBit := make(map[uint32]uint32)
	var x, y uint32
	for a := uint32(1); ; a++ {
		b := HashBit(a)
		if prev, ok := byBit[b]; ok {
			x, y = prev, a
			break
		}
		byBit[b] = a
	}
	if CollisionFree([]uint32{x, y}) {
		t.Fatalf("addresses %d and %d collide but CollisionFree says no", x, y)
	}
}

func TestQuickUnionSuperset(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a, b Signature
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		u := a
		u.Union(&b)
		for _, x := range xs {
			if !u.Test(x) {
				return false
			}
		}
		for _, y := range ys {
			if !u.Test(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectsSymmetric(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a, b Signature
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		return a.Intersects(&b) == b.Intersects(&a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndNotDisjointFromSubtrahend(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a, b, d Signature
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		a.AndNot(&b, &d)
		return !d.Intersects(&b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
