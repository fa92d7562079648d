// Package sig implements the cache-aligned Bloom-filter signatures Part-HTM
// uses for all of its conflict-management metadata.
//
// Following the paper, a signature is a bit array of 2048 bits — 32 words,
// i.e. exactly 4 cache lines of the simulated memory — with a single hash
// function. A signature therefore fits the HTM resource budget (reading one
// costs 4 monitored cache lines) while keeping the false-conflict rate low.
package sig

import "math/bits"

const (
	// Bits is the signature size in bits (2048, as in the paper).
	Bits = 2048
	// Words is the signature size in 64-bit words.
	Words = Bits / 64
	// Lines is the signature size in 64-byte cache lines.
	Lines = Words / 8
)

// Signature is a 2048-bit Bloom filter over memory addresses. The zero value
// is an empty signature ready for use.
type Signature [Words]uint64

// HashBit maps an address to its bit position in [0, Bits). A single
// multiplicative (Fibonacci) hash is used, matching the paper's single hash
// function per signature.
func HashBit(a uint32) uint32 {
	return uint32((uint64(a) * 0x9E3779B97F4A7C15) >> (64 - 11)) // top 11 bits => 0..2047
}

// Add records address a in the signature.
func (s *Signature) Add(a uint32) {
	b := HashBit(a)
	s[b>>6] |= 1 << (b & 63)
}

// AddBit sets bit b directly. Used by tests and by code replaying signature
// words read from simulated memory.
func (s *Signature) AddBit(b uint32) {
	s[b>>6] |= 1 << (b & 63)
}

// Test reports whether address a may have been added (Bloom semantics:
// false positives possible, false negatives impossible).
func (s *Signature) Test(a uint32) bool {
	b := HashBit(a)
	return s[b>>6]&(1<<(b&63)) != 0
}

// Clear empties the signature.
func (s *Signature) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Empty reports whether no bits are set.
func (s *Signature) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share any set bit — the bitwise-AND
// test Part-HTM uses for every validation.
func (s *Signature) Intersects(o *Signature) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectsWords reports whether s shares any set bit with the raw words w.
// w must have at least Words elements; used when the other signature was
// just read out of simulated memory.
func (s *Signature) IntersectsWords(w []uint64) bool {
	for i := range s {
		if s[i]&w[i] != 0 {
			return true
		}
	}
	return false
}

// Union merges o into s.
func (s *Signature) Union(o *Signature) {
	for i := range s {
		s[i] |= o[i]
	}
}

// AndNot returns s &^ o into dst: the bits of s that are not in o. Part-HTM
// uses this to subtract its own aggregate write signature from the global
// write-locks signature ("others_locks" in the paper's pseudo-code).
func (s *Signature) AndNot(o *Signature, dst *Signature) {
	for i := range s {
		dst[i] = s[i] &^ o[i]
	}
}

// CopyFrom overwrites s with o.
func (s *Signature) CopyFrom(o *Signature) { *s = *o }

// PopCount returns the number of set bits.
func (s *Signature) PopCount() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether the two signatures are identical.
func (s *Signature) Equal(o *Signature) bool { return *s == *o }

// CollisionFree reports whether the given addresses all map to distinct
// bits. Correctness tests use it to pick address sets on which signature
// aliasing cannot mask or fabricate conflicts.
func CollisionFree(addrs []uint32) bool {
	seen := make(map[uint32]struct{}, len(addrs))
	for _, a := range addrs {
		b := HashBit(a)
		if _, dup := seen[b]; dup {
			return false
		}
		seen[b] = struct{}{}
	}
	return true
}
