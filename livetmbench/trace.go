package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"livetm/internal/engine"
	"livetm/internal/server"
)

// Tracing wraps the seams the code already exposes — engine.Body and
// engine.Tx around each program, server.Backend around the session,
// server.Codec on both sides of the wire, an http.RoundTripper in the
// client and http.Handler middleware around the server — and records
// one span per boundary crossing. Spans live in a preallocated buffer
// and are written out when the run ends.

// spanName identifies a boundary.
type spanName uint8

const (
	spDriver spanName = iota
	spDriverWait
	spClientExec
	spClientEncode
	spHTTPRTT
	spClientDecode
	spServerHandler
	spServerDecode
	spServerBackend
	spServerEncode
	spEngineQueued
	spEngineAttempt
	spNativeOp
	spNativeRetry
	spEnginePostCommit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver", "driver.wait", "client.exec", "client.encode", "http.rtt", "client.decode",
	"server.handler", "server.decode", "server.backend", "server.encode",
	"engine.queued", "engine.attempt", "native.op", "native.retry", "engine.post_commit",
}

// span is one boundary crossing of one program. Spans of a program
// share prog; parent indexes the enclosing span (-1 for the root).
type span struct {
	prog       uint64
	parent     int32
	name       spanName
	start, end int64 // ns on the run clock
}

// clock is the run's monotonic time base.
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// traceCapacity bounds the span buffer (64 MiB). The denser the
// sample, the less a traced program runs on cold caches, so the buffer
// is large.
const traceCapacity = 1 << 21

// spanBlock is how many buffer slots a spanLog reserves at a time.
const spanBlock = 16

// sampleEvery is the sampling interval that lets a traced pass about
// as long as an untraced one that ran programs fill at most the span
// buffer. A sampled program takes about a block in process (the
// op-traced eighth takes two) and a block on each side of the wire.
func sampleEvery(programs int, wire bool) uint64 {
	slots := spanBlock * 5 / 4
	if wire {
		slots = 2 * spanBlock
	}
	return uint64(max(1, (programs*slots+traceCapacity-1)/traceCapacity))
}

// tracer owns the span buffer and the counters the traced run reads.
type tracer struct {
	clk   *clock
	spans []span
	every uint64 // one program in every gets spans
	done  []span // recorded's result, once computed

	// n is the slots reserved so far. The padding keeps it off the
	// cache line of the counters every request bumps.
	_ [64]byte
	n atomic.Int64
	_ [64]byte

	refused  atomic.Int64 // 429 replies seen by the middleware
	requests atomic.Int64 // requests seen by the middleware
}

func newTracer(clk *clock, every uint64) *tracer {
	t := &tracer{clk: clk, spans: make([]span, traceCapacity), every: every}
	// Touch every page now, so no traced program takes the page fault.
	for i := range t.spans {
		t.spans[i].start = -1
	}
	clear(t.spans)
	return t
}

// sampled reports whether program id gets spans: one in t.every, by a
// hash of the id, so the choice depends neither on how fast the system
// runs nor on which slot the program came from; none once the buffer
// is nearly full (headroom for programs already in flight).
func (t *tracer) sampled(id uint64) bool {
	return t != nil && mix64(id)%t.every == 0 && t.n.Load() < traceCapacity-64*spanBlock
}

// opSpanEvery picks the sampled programs that also get native.op
// spans: one in opSpanEvery. An op span costs a clock read (~50 ns on
// a KVM guest) inside the transaction, about what a native operation
// costs, and on hot shared variables the longer attempts conflict
// more; so the op-traced programs give the native.op figures, and the
// programs traced down to the engine attempt give the reconciliation.
const opSpanEvery = 8

// opSpans reports whether sampled program id gets native.op spans.
func (t *tracer) opSpans(id uint64) bool {
	return mix64(id)/t.every%opSpanEvery == 0
}

func (t *tracer) end(i int32) { t.endAt(i, t.clk.now()) }

// endAt closes span i (none when i is -1).
func (t *tracer) endAt(i int32, ts int64) {
	if i >= 0 {
		t.spans[i].end = ts
	}
}

// spanLog records the spans of one trace context: a program in
// process or on the client side, a request on the server side. One
// goroutine at a time writes it, handing it on through the engine's
// queue or a channel, so a span costs no atomic operation: the log
// writes into blocks of the buffer it reserves for itself, and the
// cache lines it touches are its own. Span indices are buffer indices,
// so a span's parent may sit in another log (server.handler under the
// client's http.rtt).
type spanLog struct {
	t           *tracer
	prog        uint64
	next, limit int64
}

func (t *tracer) newLog(prog uint64) *spanLog {
	return &spanLog{t: t, prog: prog}
}

// add records a span whose bounds are already known (end 0 while
// open) and returns its index, -1 when the buffer is full.
func (l *spanLog) add(parent int32, name spanName, start, end int64) int32 {
	if l.next == l.limit {
		l.next = l.t.n.Add(spanBlock) - spanBlock
		l.limit = l.next + spanBlock
		if l.limit > int64(len(l.t.spans)) {
			l.next = l.limit
			return -1
		}
	}
	i := l.next
	l.next++
	l.t.spans[i] = span{prog: l.prog, parent: parent, name: name, start: start, end: end}
	return int32(i)
}

// begin opens a span now.
func (l *spanLog) begin(parent int32, name spanName) int32 {
	return l.add(parent, name, l.t.clk.now(), 0)
}

// recorded returns the spans written, without the unused slots of
// each log's last block; call after the run.
func (t *tracer) recorded() []span {
	if t.done != nil {
		return t.done
	}
	n := min(t.n.Load(), int64(len(t.spans)))
	at := make([]int32, n) // buffer index -> index in done
	t.done = make([]span, 0, n)
	for i, s := range t.spans[:n] {
		at[i] = -1
		if s.start > 0 { // an unused slot is all zero
			at[i] = int32(len(t.done))
			t.done = append(t.done, s)
		}
	}
	for i := range t.done {
		if p := t.done[i].parent; p >= 0 {
			t.done[i].parent = at[p]
		}
	}
	return t.done
}

// writeSpans dumps the spans as tab-separated lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tprog\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.recorded() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.prog, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progTrace follows one program through the engine: the body wrapper
// emits engine.queued before the first attempt, one engine.attempt
// (with native.op children) per attempt, native.retry for the retry
// loop's abort handling and backoff between attempts, and finish emits
// engine.post_commit. Only sampled programs are followed; unsampled
// ones reach the session unwrapped.
type progTrace struct {
	t       *tracer
	log     *spanLog
	ops     bool  // record native.op spans
	parent  int32 // the span the engine spans hang off
	entered int64 // when the session was handed the program
	lastEnd int64 // when the latest attempt's body returned
	started bool
}

// wrap records the attempt span (and on op-traced programs the op
// spans) around body.
func (pt *progTrace) wrap(body engine.Body) engine.Body {
	return func(tx engine.Tx) error {
		t, l := pt.t, pt.log
		now := t.clk.now()
		if !pt.started {
			pt.started = true
			l.add(pt.parent, spEngineQueued, pt.entered, now)
		} else {
			l.add(pt.parent, spNativeRetry, pt.lastEnd, now)
		}
		a := l.add(pt.parent, spEngineAttempt, now, 0)
		var err error
		if pt.ops {
			err = body(&spanTx{tx: tx, pt: pt, attempt: a, last: now})
		} else {
			err = body(tx)
		}
		pt.lastEnd = t.clk.now()
		t.endAt(a, pt.lastEnd)
		return err
	}
}

// finish records engine.post_commit: the last attempt's return to the
// result reaching the caller (commit, recorder publish, cut pause).
func (pt *progTrace) finish() {
	if pt.started {
		pt.log.add(pt.parent, spEnginePostCommit, pt.lastEnd, pt.t.clk.now())
	}
}

// spanTx records a native.op span for each operation. One clock read
// per operation: an operation's span runs from the end of the one
// before it (the attempt's start for the first) to its own return.
type spanTx struct {
	tx      engine.Tx
	pt      *progTrace
	attempt int32
	last    int64
}

func (s *spanTx) op() {
	now := s.pt.t.clk.now()
	s.pt.log.add(s.attempt, spNativeOp, s.last, now)
	s.last = now
}

func (s *spanTx) Read(i int) (int64, error) {
	v, err := s.tx.Read(i)
	s.op()
	return v, err
}

func (s *spanTx) Write(i int, v int64) error {
	err := s.tx.Write(i, v)
	s.op()
	return err
}

// tracedBackend is the server.Backend wrapper around the session. On
// the wire path the server calls ExecOn with the request context,
// which carries the request's trace from the middleware; the
// in-process driver calls submitTraced with the program's log.
type tracedBackend struct {
	server.Backend
	t *tracer
}

type traceKey struct{}

// wireTrace is the trace context of one sampled request on the server
// side: its log and the span the next server span hangs off.
type wireTrace struct {
	log     *spanLog
	handler int32
}

// ExecOn implements engine.Submitter for the server: on sampled
// requests it records the server.backend span and wraps the body.
func (b *tracedBackend) ExecOn(ctx context.Context, worker int, body engine.Body) error {
	wt, _ := ctx.Value(traceKey{}).(*wireTrace)
	if wt == nil {
		return b.Backend.ExecOn(ctx, worker, body)
	}
	bs := wt.log.begin(wt.handler, spServerBackend)
	pt := &progTrace{t: b.t, log: wt.log, ops: b.t.opSpans(wt.log.prog), parent: bs}
	pt.entered = b.t.clk.now()
	err := b.Backend.ExecOn(ctx, worker, pt.wrap(body))
	pt.finish()
	b.t.end(bs)
	return err
}

// Exec implements engine.Submitter.
func (b *tracedBackend) Exec(ctx context.Context, body engine.Body) error {
	return b.ExecOn(ctx, engine.AnyWorker, body)
}

// submitTraced submits one in-process program whose driver span is
// root in log (log nil when unsampled) and, on sampled programs,
// returns how long the Submit call itself took (engine.submit_us).
func (b *tracedBackend) submitTraced(log *spanLog, root int32, worker int, body engine.Body, done func(error)) (int64, error) {
	if log == nil {
		return 0, b.Backend.SubmitOn(worker, body, done)
	}
	pt := &progTrace{t: b.t, log: log, ops: b.t.opSpans(log.prog), parent: root}
	pt.entered = b.t.clk.now()
	err := b.Backend.SubmitOn(worker, pt.wrap(body), func(err error) {
		pt.finish()
		done(err)
	})
	return b.t.clk.now() - pt.entered, err
}

// traceHeader carries "<program id>.<http.rtt span index>" from the
// client's RoundTripper to the server middleware.
const traceHeader = "X-Livetm-Bench-Trace"

// clientTrace is the client-side trace of one sampled program, put in
// the request context by the driver.
type clientTrace struct {
	log  *spanLog
	exec int32 // the client.exec span
}

// roundTripper times each HTTP round trip and forwards the trace.
type roundTripper struct {
	next http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	ct, _ := req.Context().Value(traceKey{}).(*clientTrace)
	if ct == nil {
		return rt.next.RoundTrip(req)
	}
	sp := ct.log.begin(ct.exec, spHTTPRTT)
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, strconv.FormatUint(ct.log.prog, 10)+"."+strconv.Itoa(int(sp)))
	resp, err := rt.next.RoundTrip(req)
	ct.log.t.end(sp)
	return resp, err
}

// middleware wraps the server handler: it counts requests and 429s,
// and on traced requests opens the request's log, records
// server.handler, and hands the trace to the codec (through the body
// and writer) and the backend (through the context).
func middleware(next http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		if h := r.Header.Get(traceHeader); h != "" {
			if id, parent, ok := parseTrace(h); ok {
				log := t.newLog(id)
				wt := &wireTrace{log: log, handler: log.begin(parent, spServerHandler)}
				r = r.WithContext(context.WithValue(r.Context(), traceKey{}, wt))
				r.Body = &tracedBody{ReadCloser: r.Body, wt: wt}
				sw.wt = wt
				defer t.end(wt.handler)
			}
		}
		next.ServeHTTP(sw, r)
		if sw.status == http.StatusTooManyRequests {
			t.refused.Add(1)
		}
	})
}

func parseTrace(h string) (id uint64, parent int32, ok bool) {
	a, b, found := strings.Cut(h, ".")
	if !found {
		return 0, 0, false
	}
	id, err1 := strconv.ParseUint(a, 10, 64)
	p, err2 := strconv.ParseInt(b, 10, 32)
	return id, int32(p), err1 == nil && err2 == nil
}

// statusWriter captures the reply status and carries the trace to the
// server codec's Encode.
type statusWriter struct {
	http.ResponseWriter
	status int
	wt     *wireTrace
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedBody carries the trace to the server codec's Decode.
type tracedBody struct {
	io.ReadCloser
	wt *wireTrace
}

// serverCodec times the server's frame encoding and decoding of
// traced requests.
type serverCodec struct {
	server.Codec
	t *tracer
}

func (c serverCodec) Decode(r io.Reader, v any) error {
	tb, ok := r.(*tracedBody)
	if !ok {
		return c.Codec.Decode(r, v)
	}
	sp := tb.wt.log.begin(tb.wt.handler, spServerDecode)
	err := c.Codec.Decode(r, v)
	c.t.end(sp)
	return err
}

func (c serverCodec) Encode(w io.Writer, v any) error {
	sw, ok := w.(*statusWriter)
	if !ok || sw.wt == nil {
		return c.Codec.Encode(w, v)
	}
	sp := sw.wt.log.begin(sw.wt.handler, spServerEncode)
	err := c.Codec.Encode(w, v)
	c.t.end(sp)
	return err
}

// clientCodec times the client's frame encoding and decoding. The
// client encodes into a buffer, so the trace cannot ride on the
// writer: each sender goroutine owns one clientCodec and sets cur
// around each traced call.
type clientCodec struct {
	server.Codec
	t   *tracer
	cur *clientTrace
}

func (c *clientCodec) Encode(w io.Writer, v any) error {
	if c.cur == nil {
		return c.Codec.Encode(w, v)
	}
	sp := c.cur.log.begin(c.cur.exec, spClientEncode)
	err := c.Codec.Encode(w, v)
	c.t.end(sp)
	return err
}

func (c *clientCodec) Decode(r io.Reader, v any) error {
	if c.cur == nil {
		return c.Codec.Decode(r, v)
	}
	sp := c.cur.log.begin(c.cur.exec, spClientDecode)
	err := c.Codec.Decode(r, v)
	c.t.end(sp)
	return err
}
