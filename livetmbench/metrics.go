package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a figure; an infinite one (a quantile among failures)
// is reported as the largest finite number, which misses every limit.
func (m metricSet) set(name, unit string, v float64) {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	m[name] = metric{Value: v, Unit: unit}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0
// for no samples.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e2eMetrics computes the end-to-end figures of an untraced pass.
// setups are the set-up times of every stack the run opened.
func e2eMetrics(sp *spec, pr *passResult, setups []float64, log io.Writer) metricSet {
	ld := pr.load
	m := metricSet{}
	m.set("setup_s", "s", medianF(setups))
	cps := checkedRate(pr)
	m.set("commits_per_s", "1/s", cps)
	cl := ld.closed
	p50, n := cl.windowed(0.50, classAll)
	p99, _ := cl.windowed(0.99, classAll)
	rp99, nr := cl.windowed(0.99, classRead)
	wp99, nw := cl.windowed(0.99, classWrite)
	m.set("latency_p50_ms", "ms", p50)
	m.set("latency_p99_ms", "ms", p99)
	m.set("read_p99_ms", "ms", rp99)
	m.set("write_p99_ms", "ms", wp99)
	fmt.Fprintf(log, "closed-loop latency samples: %d (read %d, write %d); figures are medians over %v windows of per-window quantiles\n", n, nr, nw, windowDur)
	m.set("ok_frac", "fraction", 1-float64(ld.failed)/float64(ld.attempted))
	m.set("peak_heap_mb", "MiB", float64(pr.peaks.heapPeak)/(1<<20))
	m.set("rate_drift", "ratio", cl.drift())

	// Without a ladder (the in-process closed loops) the metric repeats
	// commits_per_s: a closed loop offers exactly what it completes.
	// On the ladder, a level counts when its p99 from due time meets
	// the limit and it ends without a backlog.
	maxOK := 0.0
	if len(ld.ladder) == 0 {
		maxOK = cps
	}
	for l, b := range ld.ladder {
		rate := float64(b.commits) / (float64(b.end-b.start) / 1e9)
		all := b.pooled()
		lp99 := all.quantile(0.99) / 1e6
		backlog := b.tailLate.quantile(0.5) / 1e6
		ok := lp99 <= sp.limitMS && backlog <= sp.limitMS
		fmt.Fprintf(log, "rate level %.0f/s: achieved %.1f/s, from due time p50 %.3f ms p99 %.3f ms, last-tenth dispatch lateness p50 %.3f ms; meets the %g ms limit: %v\n",
			sp.rates[l], rate, all.quantile(0.5)/1e6, lp99, backlog, sp.limitMS, ok)
		if ok {
			maxOK = rate
		}
	}
	m.set("max_ok_rate_per_s", "1/s", maxOK)
	fmt.Fprintf(log, "runtime.goroutines_peak %d\n", pr.peaks.goroutinesPeak)
	return m
}
