package hist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/perthread"
)

// quantileOracle returns the ceil(q*n)-th smallest element of sorted —
// the exact value the histogram's Quantile approximates.
func quantileOracle(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(q*float64(n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// withinBucketError checks got against want under the documented bound:
// exact below subCount, ~2^-(subBits+1) relative above (we allow the full
// bucket width to absorb oracle-vs-representative skew at boundaries).
func withinBucketError(got, want int64) bool {
	if want < subCount {
		return got == want
	}
	slack := want >> (subBits - 1) // one full bucket width plus margin
	if slack < 1 {
		slack = 1
	}
	return got >= want-slack && got <= want+slack
}

func TestQuantileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int63n(100) },
		"uniform-large": func() int64 { return rng.Int63n(50_000_000) },
		"exponentialish": func() int64 {
			return int64(1) << uint(rng.Intn(30)) // spans many octaves
		},
		"latency-like": func() int64 { return 200 + rng.Int63n(5000)*rng.Int63n(100) },
	}
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for name, gen := range dists {
		var h Histogram
		vals := make([]int64, 20_000)
		for i := range vals {
			vals[i] = gen()
			h.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range qs {
			want := quantileOracle(vals, q)
			got := h.Quantile(q)
			if !withinBucketError(got, want) {
				t.Errorf("%s: Quantile(%g) = %d, oracle %d (outside bucket error)", name, q, got, want)
			}
		}
		if h.Count() != uint64(len(vals)) {
			t.Errorf("%s: Count = %d, want %d", name, h.Count(), len(vals))
		}
		var sum float64
		for _, v := range vals {
			sum += float64(v)
		}
		if mean := h.Mean(); mean != sum/float64(len(vals)) {
			t.Errorf("%s: Mean = %g, want exact %g", name, mean, sum/float64(len(vals)))
		}
		if !withinBucketError(h.Max(), vals[len(vals)-1]) {
			t.Errorf("%s: Max = %d, want ~%d", name, h.Max(), vals[len(vals)-1])
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(7)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%g) on single value = %d, want 7", q, got)
		}
	}
	h.Add(-100) // clamps to 0
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) after negative add = %d, want 0", got)
	}

	var nilH *Histogram
	nilH.Add(1) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.Mean() != 0 || nilH.Max() != 0 {
		t.Error("nil histogram accessors must return zeros")
	}
	nilH.Merge(&h)
	nilH.Reset()
}

func TestBucketLayout(t *testing.T) {
	// Every value maps into a bucket whose [low, nextLow) range contains it,
	// and bucket bounds are monotone.
	for i := 1; i < nBuckets; i++ {
		if bucketLow(i) <= bucketLow(i-1) {
			t.Fatalf("bucketLow not strictly increasing at %d: %d <= %d",
				i, bucketLow(i), bucketLow(i-1))
		}
	}
	probe := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, 1<<20 + 12345, 1<<40 - 1}
	for _, v := range probe {
		i := bucketOf(v)
		lo := bucketLow(i)
		hi := int64(1) << 62
		if i+1 < nBuckets {
			hi = bucketLow(i + 1)
		}
		if v < lo || v >= hi {
			t.Errorf("bucketOf(%d) = %d with range [%d, %d)", v, i, lo, hi)
		}
	}
	// Values beyond the supported exponent clamp into the last bucket.
	if bucketOf(1<<41) != nBuckets-1 || bucketOf(1<<62) != nBuckets-1 {
		t.Error("oversized values must clamp to the final bucket")
	}
}

func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = new(Histogram)
		for j := 0; j < 5000; j++ {
			shards[i].Add(rng.Int63n(1_000_000))
		}
	}

	// (((a+b)+c)+d) vs (a+(b+(c+d))) vs pairwise tree — all must agree.
	var left Histogram
	for _, s := range shards {
		left.Merge(s)
	}
	var right Histogram
	for i := len(shards) - 1; i >= 0; i-- {
		right.Merge(shards[i])
	}
	var ab, cd, tree Histogram
	ab.Merge(shards[0])
	ab.Merge(shards[1])
	cd.Merge(shards[2])
	cd.Merge(shards[3])
	tree.Merge(&ab)
	tree.Merge(&cd)

	for _, other := range []*Histogram{&right, &tree} {
		if left.Count() != other.Count() || left.Mean() != other.Mean() {
			t.Fatal("merge groupings disagree on count/mean")
		}
		for i := range left.counts {
			if left.counts[i].Load() != other.counts[i].Load() {
				t.Fatalf("merge groupings disagree at bucket %d", i)
			}
		}
	}
	if left.Count() != 4*5000 {
		t.Fatalf("merged count = %d, want %d", left.Count(), 4*5000)
	}
}

func TestResetEmpties(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 100; i++ {
		h.Add(i * i)
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("Reset must empty the histogram")
	}
}

// TestConcurrentSingleWriter hammers the single-writer discipline under
// -race: one writer goroutine per shard records while a reader merges and
// queries concurrently. The race detector validates the memory model; the
// final merged count validates no update was lost.
func TestConcurrentSingleWriter(t *testing.T) {
	const writers = 4
	const perWriter = 20_000
	shards := make([]*Histogram, writers)
	for i := range shards {
		shards[i] = new(Histogram)
	}

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() { // concurrent reader: merge + quantile while writes fly
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var m Histogram
			for _, s := range shards {
				m.Merge(s)
			}
			_ = m.Quantile(0.99)
			_ = m.Mean()
		}
	}()

	perthread.Run(writers, func(i int) {
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < perWriter; j++ {
			shards[i].Add(rng.Int63n(1 << 20))
		}
	})
	close(stop)
	readerDone.Wait()

	var m Histogram
	for _, s := range shards {
		m.Merge(s)
	}
	if m.Count() != writers*perWriter {
		t.Fatalf("merged count = %d, want %d (single-writer updates lost)", m.Count(), writers*perWriter)
	}
}
