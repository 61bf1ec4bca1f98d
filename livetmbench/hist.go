package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram in nanoseconds: exact below
// 64 ns, then 32 sub-buckets per power of two (at most 3.1% relative
// width) up to 2^40 ns, where it saturates. It keeps a run's quantiles
// in fixed memory, so the benchmark's own footprint does not grow with
// the throughput it measures. Failures are counted apart, beyond every
// finite value.
type hist struct {
	counts [histBuckets]uint32
	n      uint64 // finite samples
	inf    uint64 // failures
}

const (
	histSub     = 32
	histMaxBits = 40
	histBuckets = 2*histSub + (histMaxBits-6)*histSub
)

func bucketOf(v int64) int {
	if v < 2*histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 6 // v>>e is in [32, 64)
	return min(2*histSub+(e-1)*histSub+int(uint64(v)>>e)-histSub, histBuckets-1)
}

// bucketRange is bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	e := (i-2*histSub)/histSub + 1
	m := (i-2*histSub)%histSub + histSub
	return float64(int64(m) << e), float64(int64(1) << e)
}

// add records one latency; math.MaxInt64 records a failure.
func (h *hist) add(v int64) {
	if v == math.MaxInt64 {
		h.inf++
		return
	}
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.inf += o.inf
}

func (h *hist) total() uint64 { return h.n + h.inf }

// quantile is the q-quantile in ns, interpolated linearly within its
// bucket; +Inf when it falls among the failures, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.total() == 0 {
		return 0
	}
	rank := q * float64(h.total())
	if rank > float64(h.n) {
		return math.Inf(1)
	}
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0 // unreachable: rank <= n
}
