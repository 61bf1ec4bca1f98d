package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// reconcileTolerance is how far the per-layer self times of the median
// program along the blocking chain may sum from the end-to-end median,
// as a share of that median, before a traced run fails its
// reconciliation check.
const reconcileTolerance = 0.2

// selfTimes is every span's self time: its duration minus the time
// its children cover (0 for an incomplete span).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end > 0 {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
	}
	return self
}

// selfOf lists the self time of every complete span named n.
func selfOf(spans []span, self []int64, n spanName) []int64 {
	var out []int64
	for i, s := range spans {
		if s.name == n && s.end > 0 {
			out = append(out, self[i])
		}
	}
	return out
}

// durations lists the durations of every complete span named n.
func durations(spans []span, n spanName) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == n && s.end > 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// bodyDurations lists the durations of the engine.attempt spans
// without native.op children: the attempt bodies the op spans did not
// slow down.
func bodyDurations(spans []span) []int64 {
	withOps := map[int32]bool{}
	for _, s := range spans {
		if s.name == spNativeOp {
			withOps[s.parent] = true
		}
	}
	var out []int64
	for i, s := range spans {
		if s.name == spEngineAttempt && s.end > 0 && !withOps[int32(i)] {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// reconcileBand is the half-width, as a share of the programs, of the
// band around the median-latency program that reconcile averages over.
const reconcileBand = 0.02

// reconcile checks the traced spans against an independent figure:
// e2e, the median end-to-end latency in ns the driver measured over
// every closed-loop program of the traced pass. Almost all of those
// are unsampled and reach the session unwrapped, so the figure owes
// nothing to the spans.
//
// It takes the traced closed-loop programs without op spans (programs
// whose driver span starts before from, the open-loop ladder, are left
// out), ranks them by driver-span duration, and averages each
// boundary's self time over the band of programs around the median
// rank: the self time of the median program, per boundary. Plain
// per-boundary medians would not add up: where a stall lands in a
// different stage for each program, as checker backpressure does on
// live-cold-write, every stage's median misses it. The boundaries
// below the driver span are summed; the driver span's own self time is
// end-to-end time no layer span covers. What that sum misses of e2e,
// or adds to it because traced programs run slower than the rest, is
// the unexplained share. It returns that share, the per-boundary
// figures in ns, and the number of programs ranked.
func reconcile(spans []span, from int64, e2e float64) (unexplained float64, self [numSpanNames]float64, programs int) {
	own := selfTimes(spans)
	type prog struct {
		self [numSpanNames]int64
		root int64
		skip bool
	}
	byID := map[uint64]*prog{}
	for i, s := range spans {
		p := byID[s.prog]
		if p == nil {
			p = &prog{root: -1}
			byID[s.prog] = p
		}
		if s.end == 0 || s.name == spNativeOp || (s.name == spDriver && s.start < from) {
			p.skip = true
			continue
		}
		p.self[s.name] += own[i]
		if s.name == spDriver {
			p.root = s.end - s.start
		}
	}
	var ranked []*prog
	for _, p := range byID {
		if !p.skip && p.root >= 0 {
			ranked = append(ranked, p)
		}
	}
	programs = len(ranked)
	if programs == 0 || e2e <= 0 {
		return math.Inf(1), self, programs
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].root < ranked[b].root })
	lo := int(float64(programs) * (0.5 - reconcileBand))
	hi := max(int(float64(programs)*(0.5+reconcileBand)), lo+1)
	band := ranked[lo:hi]
	var explained float64
	for n := range self {
		for _, p := range band {
			self[n] += float64(p.self[n])
		}
		self[n] /= float64(len(band))
		if spanName(n) != spDriver {
			explained += self[n]
		}
	}
	return math.Abs(e2e-explained) / e2e, self, programs
}

// layerMetrics computes the per-layer figures of a traced pass; base
// is the untraced pass run alongside it, for the tracing overhead.
func layerMetrics(base, pr *passResult, log io.Writer) (metricSet, error) {
	m := metricSet{}
	ld, g, t := pr.load, pr.gate, pr.tracer
	spans := t.recorded()
	us := func(xs []int64, q float64) float64 { return float64(quantile(xs, q)) / 1e3 }
	per := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	commits := float64(g.stats.Commits)

	var late hist
	for _, b := range ld.ladder {
		late.merge(&b.late)
	}
	m.set("driver.late_p99_ms", "ms", late.quantile(0.99)/1e6)
	m.set("driver.outstanding_peak", "count", float64(ld.peakOut))
	m.set("driver.failed_frac", "fraction", per(float64(ld.failed), float64(ld.attempted)))

	m.set("client.encode_us", "us", us(durations(spans, spClientEncode), 0.5))
	m.set("client.decode_us", "us", us(durations(spans, spClientDecode), 0.5))
	m.set("client.rtt_p50_us", "us", us(durations(spans, spHTTPRTT), 0.5))
	m.set("client.rtt_p99_us", "us", us(durations(spans, spHTTPRTT), 0.99))
	m.set("client.retries_per_req", "ratio", per(float64(ld.retries), float64(ld.attempted)))

	e2e, _ := ld.closed.windowed(0.5, classAll)
	unexplained, self, programs := reconcile(spans, ld.start, e2e*1e6)
	m.set("server.handler_p50_us", "us", us(durations(spans, spServerHandler), 0.5))
	m.set("server.handler_p99_us", "us", us(durations(spans, spServerHandler), 0.99))
	m.set("server.self_p50_us", "us", us(selfOf(spans, selfTimes(spans), spServerHandler), 0.5))
	m.set("server.decode_us", "us", us(durations(spans, spServerDecode), 0.5))
	m.set("server.encode_us", "us", us(durations(spans, spServerEncode), 0.5))
	m.set("server.backend_p50_us", "us", us(durations(spans, spServerBackend), 0.5))
	m.set("server.refused_frac", "fraction", per(float64(t.refused.Load()), float64(t.requests.Load())))

	m.set("engine.submit_us", "us", us(ld.submitNS, 0.5))
	m.set("engine.queue_wait_p50_us", "us", us(durations(spans, spEngineQueued), 0.5))
	m.set("engine.queue_wait_p99_us", "us", us(durations(spans, spEngineQueued), 0.99))
	m.set("engine.post_commit_p50_us", "us", us(durations(spans, spEnginePostCommit), 0.5))
	m.set("engine.post_commit_p99_us", "us", us(durations(spans, spEnginePostCommit), 0.99))
	m.set("engine.cut_pause_p99_us", "us", float64(g.stats.CutLatency.P99ns)/1e3)
	m.set("engine.cuts_per_kcommit", "count", per(float64(g.stats.CutLatency.Count)*1000, commits))

	m.set("native.attempts_per_commit", "ratio", per(commits+float64(g.stats.Aborts), commits))
	m.set("native.abort_rate", "fraction", g.stats.AbortRate())
	m.set("native.body_us", "us", us(bodyDurations(spans), 0.5))
	m.set("native.op_ns", "ns", float64(quantile(durations(spans, spNativeOp), 0.5)))
	var backoff float64
	if f := pr.snap.Family("livetm_tx_backoff_wait_ns"); f != nil && len(f.Series) > 0 {
		backoff = float64(f.Series[0].P99) / 1e3
	}
	m.set("native.backoff_wait_p99_us", "us", backoff)

	m.set("record.events_per_commit", "ratio", per(pr.snap.Total("livetm_recorder_events_total"), commits))
	m.set("record.chunks_peak", "count", pr.peaks.chunksPeak)
	m.set("record.dropped", "count", pr.snap.Total("livetm_recorder_dropped_total"))

	var segs, forced, closeMS float64
	if g.report != nil {
		segs, forced = float64(g.report.Opacity.Segments), float64(g.report.Opacity.ForcedCuts)
		closeMS = float64(g.closed-ld.lastDone) / 1e6
	}
	m.set("checker.segments_per_kcommit", "count", per(segs*1000, commits))
	m.set("checker.txns_per_segment", "ratio", per(commits+float64(g.stats.Aborts), segs))
	m.set("checker.forced_cuts", "count", forced)
	m.set("checker.lane_lag_peak", "count", pr.peaks.laneLagPeak)
	m.set("checker.close_ms", "ms", closeMS)

	rt := pr.rtEnd
	m.set("runtime.allocs_per_commit", "count", per(float64(rt.allocs-pr.rtStart.allocs), commits))
	m.set("runtime.alloc_bytes_per_commit", "B", per(float64(rt.allocBytes-pr.rtStart.allocBytes), commits))
	m.set("runtime.gc_cpu_frac", "fraction", per(rt.gcCPU-pr.rtStart.gcCPU, rt.totalCPU-pr.rtStart.totalCPU))
	m.set("runtime.goroutines_peak", "count", float64(pr.peaks.goroutinesPeak))

	m.set("trace.unexplained_frac", "fraction", unexplained)
	m.set("trace.overhead_ratio", "ratio", per(checkedRate(pr), checkedRate(base)))

	fmt.Fprintf(log, "self time per boundary of the median program (mean over the middle %.0f%% of %d traced closed-loop programs without op spans, by latency):\n", 200*reconcileBand, programs)
	var sum float64
	for n, v := range self {
		if spanName(n) != spDriver {
			sum += v
		}
		fmt.Fprintf(log, "  %-20s %10.3f us\n", spanNames[n], v/1e3)
	}
	untraced, _ := base.load.closed.windowed(0.5, classAll)
	fmt.Fprintf(log, "  layers sum %.3f us; median latency of the traced pass %.3f us (untraced pass %.3f us); unexplained %.3f (tolerance %.2f)\n", sum/1e3, e2e*1e3, untraced*1e3, unexplained, reconcileTolerance)
	if !(unexplained <= reconcileTolerance) {
		return m, fmt.Errorf("reconciliation: the median program's per-layer self times leave %.3f of the median latency unexplained (tolerance %.2f)", unexplained, reconcileTolerance)
	}
	return m, nil
}

// checkedRate is a pass's commits per second from first submission
// until Close returned the verdict.
func checkedRate(pr *passResult) float64 {
	return float64(pr.load.closed.commits) / (float64(pr.gate.closed-pr.load.start) / 1e9)
}
