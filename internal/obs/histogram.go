package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a log-bucketed distribution: base-2 octaves split into 8
// linear sub-buckets (3 mantissa bits), the layout HDR-style recorders
// use. Observe is branch-light bit arithmetic plus three atomic adds —
// zero allocations. A finite bucket b holds the values in
// [BucketUpper(b-1), BucketUpper(b)), and the exposition reports each
// occupied bucket by that upper bound.
//
// Range: values in [2^-16, 2^48) ≈ [1.5e-5, 2.8e14) land in finite
// buckets — queue depths, cwnd bytes, and nanosecond sim durations all
// fit. Zero, negatives, NaN, and smaller values count in a dedicated
// underflow bucket; larger ones in an overflow bucket.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	buckets [numBuckets]atomic.Int64
}

const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // linear sub-buckets per octave
	histMinExp   = -16
	histMaxExp   = 47
	numOctaves   = histMaxExp - histMinExp + 1
	numBuckets   = numOctaves*histSubCount + 2 // + underflow, + overflow

	underflowBucket = 0
	overflowBucket  = numBuckets - 1
)

// bucketIndex maps a value to its bucket. Zero, negative, NaN, and
// subnormal-small values underflow (their IEEE exponent is below
// histMinExp); +Inf and huge values overflow.
//
//drill:hotpath
func bucketIndex(v float64) int {
	bits := math.Float64bits(v)
	if bits == 0 || bits>>63 != 0 || v != v { // +0, negative (incl. -0), NaN
		return underflowBucket
	}
	exp := int(bits>>52&0x7ff) - 1023
	if exp < histMinExp {
		return underflowBucket
	}
	if exp > histMaxExp {
		return overflowBucket
	}
	sub := int(bits >> (52 - histSubBits) & (histSubCount - 1))
	return 1 + (exp-histMinExp)*histSubCount + sub
}

// BucketUpper returns the exclusive upper bound of bucket i:
// 0 has bound 2^histMinExp, the overflow bucket +Inf.
func BucketUpper(i int) float64 {
	if i <= underflowBucket {
		return math.Ldexp(1, histMinExp)
	}
	if i >= overflowBucket {
		return math.Inf(1)
	}
	o, s := (i-1)/histSubCount+histMinExp, (i-1)%histSubCount
	return math.Ldexp(1+float64(s+1)/histSubCount, o)
}

// Observe records one value.
//
//drill:hotpath
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCount is one occupied bucket in a HistogramData snapshot.
type BucketCount struct {
	Index int   `json:"i"`
	Count int64 `json:"n"`
}

// HistogramData is an immutable, sparse snapshot of a Histogram: only
// occupied buckets are retained, sorted by index.
type HistogramData struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Data snapshots the histogram. Buckets emptied concurrently with the
// copy may read slightly staler than count/sum; within the simulator's
// single writer thread the copy is exact.
func (h *Histogram) Data() *HistogramData {
	d := &HistogramData{Count: h.count.Load(), Sum: h.Sum()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			d.Buckets = append(d.Buckets, BucketCount{Index: i, Count: n})
		}
	}
	return d
}
