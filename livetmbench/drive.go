package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"time"

	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/monitor"
	"livetm/internal/server"
	"livetm/internal/telemetry"
)

// engineName is the TM every workload runs on.
const engineName = "native-tl2"

// stack is one opened system under test: a session, and on the wire
// workload the server, its loopback listener and the client transport.
type stack struct {
	sp   *spec
	sess *engine.Session
	be   server.Backend // the session, or its tracing wrapper
	tb   *tracedBackend // nil when untraced
	reg  *telemetry.Registry

	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	hc     *http.Client
	addr   string
	cl     *client.Client
}

// openStack opens the system under test. With t non-nil the wrappers
// and a telemetry registry are attached.
func openStack(sp *spec, t *tracer) (*stack, error) {
	st := &stack{sp: sp}
	if t != nil {
		st.reg = telemetry.NewRegistry()
	}
	sess, err := engine.Open(engine.SessionConfig{
		Engine: engineName, Workers: sp.workers, Vars: sp.vars, Live: sp.live, Telemetry: st.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	st.sess, st.be = sess, sess
	if t != nil {
		st.tb = &tracedBackend{Backend: sess, t: t}
		st.be = st.tb
	}
	if !sp.wire {
		return st, nil
	}
	var codec server.Codec = server.JSONCodec{}
	if t != nil {
		codec = serverCodec{Codec: codec, t: t}
	}
	st.srv = server.New(st.be, server.Config{
		MaxInflight: 64, Codec: codec, Registry: st.reg,
		Info: server.InfoResponse{Engine: engineName, Workers: sp.workers, Vars: sp.vars, Live: sp.live},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = sess.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = st.srv.Handler()
	if t != nil {
		h = middleware(h, t)
	}
	st.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed once shut
	}()
	st.addr = ln.Addr().String()
	st.tr = &http.Transport{MaxConnsPerHost: drivers, MaxIdleConnsPerHost: drivers, DisableCompression: true}
	var rt http.RoundTripper = st.tr
	if t != nil {
		rt = &roundTripper{next: st.tr}
	}
	st.hc = &http.Client{Transport: rt}
	st.cl = st.newClient(nil)
	return st, nil
}

// newClient builds a wire client sharing the stack's connection pool.
func (st *stack) newClient(codec server.Codec) *client.Client {
	return client.New(client.Config{Addr: st.addr, Codec: codec, HTTPClient: st.hc, Name: "bench"})
}

// exec runs one program to completion outside the measured load.
func (st *stack) exec(ops []server.Op) ([]int64, error) {
	ctx := context.Background()
	if st.cl != nil {
		resp, err := st.cl.Exec(ctx, engine.AnyWorker, ops)
		if err == nil && !resp.Committed {
			err = errors.New("program did not commit")
		}
		return resp.Reads, err
	}
	var reads []int64
	err := st.be.Exec(ctx, server.ProgramBody(ops, &reads))
	return reads, err
}

// firstOps is the program every stack commits first: the end of
// set-up.
var firstOps = []server.Op{{Kind: server.OpIncr, Var: 0, Val: 1}}

// gateResult is what the correctness gate saw.
type gateResult struct {
	report *monitor.Report
	stats  engine.SessionStats
	closed int64 // run clock when Close returned the verdict
}

// gate drains the stack, reads every variable in one transaction, and
// closes it. The sum must equal the committed incr count, and a live
// session must end opaque and not stopped. The stack is shut down
// whatever the outcome.
func (st *stack) gate(incrs int64, clk *clock) (gateResult, error) {
	var g gateResult
	ctx := context.Background()
	err := st.sess.Drain(ctx)
	var reads []int64
	if err == nil {
		reads, err = st.exec(st.sp.readAll())
	}
	var sum int64
	for _, v := range reads {
		sum += v
	}
	if st.srv != nil {
		dr, derr := st.srv.Drain(ctx)
		g.report, g.stats = dr.Report, dr.Stats
		_ = st.hs.Close() // the drained server has no work left to lose
		<-st.served
		st.tr.CloseIdleConnections()
		if err == nil {
			err = derr
		}
	} else {
		rep, cerr := st.sess.Close()
		g.report, g.stats = rep, st.sess.Stats()
		if err == nil {
			err = cerr
		}
	}
	g.closed = clk.now()
	switch {
	case err != nil:
		return g, fmt.Errorf("gate: %w", err)
	case sum != incrs:
		return g, fmt.Errorf("gate: variable sum %d, committed incr ops %d", sum, incrs)
	case g.stats.Stopped:
		return g, errors.New("gate: session stopped by the live monitor")
	case st.sp.live && (g.report == nil || !g.report.Checked || !g.report.Opacity.Holds):
		reason := "no report"
		if g.report != nil {
			reason = g.report.Opacity.Reason
		}
		return g, fmt.Errorf("gate: live verdict not opaque: %s", reason)
	}
	return g, nil
}

// sampler polls the Go runtime (and, on traced runs, the session's
// registry gauges) for peaks while a pass runs.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	heapPeak       uint64
	goroutinesPeak uint64
	laneLagPeak    float64
	chunksPeak     float64
}

const samplePeriod = 10 * time.Millisecond

func startSampler(reg *telemetry.Registry) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	ms := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	poll := func(tick int) {
		metrics.Read(ms)
		if h := ms[0].Value.Uint64() + ms[1].Value.Uint64(); h > s.heapPeak {
			s.heapPeak = h
		}
		if g := ms[2].Value.Uint64(); g > s.goroutinesPeak {
			s.goroutinesPeak = g
		}
		if reg != nil && tick%5 == 0 {
			snap := reg.Snapshot()
			s.laneLagPeak = math.Max(s.laneLagPeak, snap.Total("livetm_checker_lane_lag"))
			s.chunksPeak = math.Max(s.chunksPeak, snap.Total("livetm_recorder_chunks"))
		}
	}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(samplePeriod)
		defer tk.Stop()
		for tick := 0; ; tick++ {
			poll(tick)
			select {
			case <-s.stop:
				poll(0)
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// runtimeCounters are the cumulative runtime counters a traced pass
// differences.
type runtimeCounters struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

func readRuntime() runtimeCounters {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	return runtimeCounters{
		allocs: ms[0].Value.Uint64(), allocBytes: ms[1].Value.Uint64(),
		gcCPU: ms[2].Value.Float64(), totalCPU: ms[3].Value.Float64(),
	}
}

// passResult is one opened, loaded, gated stack.
type passResult struct {
	setupS  float64
	load    *loadResult
	gate    gateResult
	peaks   *sampler
	rtStart runtimeCounters
	rtEnd   runtimeCounters
	snap    telemetry.Snapshot
	tracer  *tracer
}

// runPass opens a stack, commits the first program (set-up ends
// there), drives load for the given time (none when seconds is 0), and
// gates the result. With traceEvery > 0 the pass is traced, with spans
// on one program in traceEvery.
func runPass(sp *spec, seed uint64, seconds float64, traceEvery uint64) (*passResult, error) {
	clk := newClock()
	var t *tracer
	if traceEvery > 0 {
		t = newTracer(clk, traceEvery)
	}
	pr := &passResult{tracer: t}
	begin := time.Now()
	st, err := openStack(sp, t)
	if err != nil {
		return nil, err
	}
	if _, err := st.exec(firstOps); err != nil {
		_, _ = st.gate(0, clk) // shut the stack down; the first error is the one to report
		return nil, fmt.Errorf("first commit: %w", err)
	}
	pr.setupS = time.Since(begin).Seconds()
	incrs := int64(1)
	if seconds > 0 {
		pr.peaks = startSampler(st.reg)
		pr.rtStart = readRuntime()
		pr.load = runLoad(st, seed, seconds, clk, t)
		incrs += pr.load.incrs
	}
	pr.gate, err = st.gate(incrs, clk)
	if pr.peaks != nil {
		pr.peaks.finish()
		pr.rtEnd = readRuntime()
	}
	if st.reg != nil {
		pr.snap = st.reg.Snapshot()
	}
	if err != nil {
		return pr, err
	}
	if pr.load != nil && pr.load.badOutput > 0 {
		return pr, fmt.Errorf("%d committed programs returned the wrong number of reads", pr.load.badOutput)
	}
	return pr, nil
}
