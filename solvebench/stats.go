package main

import (
	"math"
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tail returns the highest whole percentile, up to p90, with at least ten
// samples beyond it, and that percentile: p90 from 100 samples up, p87 at
// 80. The cap keeps the statistic comparable between runs whose sample
// counts differ, and keeps at least a tenth of the samples beyond it: a
// percentile set by its ten largest samples varies by more than a quarter
// between seeds on these heavy-tailed solve times. A sample of ten or
// fewer has no such percentile; its maximum is returned as p100.
func tail(xs []float64) (value float64, pct int) {
	n := len(xs)
	if n <= 10 {
		return quantile(xs, 1), 100
	}
	pct = min(90, 100*(n-10)/n)
	return quantile(xs, float64(pct)/100), pct
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// maxRSSMB is the process's peak resident set size in megabytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// durHist is a log-linear histogram of durations: exact below 32ns, then
// 16 buckets per power of two (about 6% resolution). Step times span
// nanoseconds to milliseconds, so keeping every sample would cost far more
// memory than the percentiles need.
type durHist [histBuckets]uint64

const histBuckets = 16 * 40

func histBucket(ns int64) int {
	if ns < 32 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 5
	b := 16*(shift+1) + int(uint64(ns)>>shift) - 16
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketMid is the midpoint of bucket b in nanoseconds.
func bucketMid(b int) float64 {
	if b < 32 {
		return float64(b)
	}
	shift := b/16 - 1
	lo := float64(uint64(16+b%16) << shift)
	return lo + float64(uint64(1)<<shift)/2
}

func (h *durHist) add(d time.Duration) { h[histBucket(int64(d))]++ }

func (h *durHist) merge(o *durHist) {
	for i, c := range o {
		h[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds.
func (h *durHist) quantile(q float64) float64 {
	var total uint64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(histBuckets - 1)
}

// splitmix64 finalizes z into a well-mixed 64-bit value.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Seed streams. Instance and initial-value seeds come from disjoint
// streams: the generators and RandomInitial draw from the same PRNG, so an
// initial-value seed equal to an instance's seed would start the search on
// the planted solution.
const (
	streamInstance uint64 = iota + 1
	streamInit
)

// derive returns the i-th positive, nonzero seed of a stream for the
// workload seed.
func derive(seed int64, stream uint64, i int) int64 {
	z := splitmix64(uint64(seed) ^ stream<<56)
	z = splitmix64(z ^ uint64(i))
	return int64(z>>2) | 1
}
