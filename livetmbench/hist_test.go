package main

import (
	"math"
	"testing"
)

// Every value lands in the bucket whose range holds it, and quantiles
// are within the bucket width of the exact order statistic.
func TestHistBuckets(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 30, 1<<40 - 1} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d in bucket [%v, %v)", v, lo, lo+w)
		}
	}
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want)/want > 0.032 {
			t.Errorf("q%.2f = %.0f, want %.0f within 3.2%%", q, got, want)
		}
	}
	h.add(math.MaxInt64)
	if h.inf != 1 || !math.IsInf(h.quantile(1), 1) {
		t.Errorf("a failure must sit beyond every finite latency")
	}
}
