package obs

import (
	"math"
	"math/rand"
	"testing"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Bucket bounds must tile the finite range without gaps: each
	// bucket's lower bound lands in it, and its upper bound is the next
	// bucket's floor.
	for i := 1; i < overflowBucket; i++ {
		if lower := BucketUpper(i - 1); bucketIndex(lower) != i {
			t.Fatalf("bucket %d: lower bound %g maps to bucket %d", i, lower, bucketIndex(lower))
		}
		if upper := BucketUpper(i); bucketIndex(upper) != i+1 {
			t.Fatalf("bucket %d: upper bound %g not the next bucket's floor", i, upper)
		}
	}
	for _, v := range []float64{0, -1, math.NaN(), 1e-30} {
		if got := bucketIndex(v); got != underflowBucket {
			t.Fatalf("bucketIndex(%v) = %d, want underflow", v, got)
		}
	}
	if got := bucketIndex(math.Inf(1)); got != overflowBucket {
		t.Fatalf("bucketIndex(+Inf) = %d, want overflow", got)
	}
	if got := bucketIndex(1e15); got != overflowBucket {
		t.Fatalf("bucketIndex(1e15) = %d, want overflow", got)
	}
}

// TestBucketBounds sweeps values across the finite range: each must land
// in the bucket whose exposed bounds hold it, [BucketUpper(b-1),
// BucketUpper(b)).
func TestBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		v := math.Ldexp(1+rng.Float64(), histMinExp+rng.Intn(numOctaves))
		b := bucketIndex(v)
		if b == overflowBucket { // 2·2^maxExp rolls over
			continue
		}
		if lo, hi := BucketUpper(b-1), BucketUpper(b); v < lo || v >= hi {
			t.Fatalf("value %g in bucket %d, outside [%g, %g)", v, b, lo, hi)
		}
	}
}
