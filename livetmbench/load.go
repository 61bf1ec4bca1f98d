package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/server"
)

// The load generator runs from at most drivers goroutines. Every
// workload has a closed-loop phase, which gives throughput, latency
// and drift; wire-open first runs an open-loop ladder of fixed Poisson
// rates, which decides max_ok_rate_per_s.

// windowDur is the length of one latency window.
const windowDur = 200 * time.Millisecond

// levelBook is one driver goroutine's record of one load level: the
// closed-loop phase, or one open-loop rate level.
type levelBook struct {
	start, end int64
	// win holds latency by completion window (windowDur each) and class
	// (0 write, 1 read); completions after end land in the last window.
	win      [][2]hist
	late     hist // open loop: dispatch lateness
	tailLate hist // open loop: lateness of arrivals due in the level's last tenth
	commits  int
}

func newLevelBook(start, end int64) *levelBook {
	n := max(int((end-start+int64(windowDur)-1)/int64(windowDur)), 1)
	return &levelBook{start: start, end: end, win: make([][2]hist, n)}
}

// record files one finished program; lat is math.MaxInt64 for a
// failure.
func (b *levelBook) record(end, lat int64, read bool) {
	w := min(max(int((end-b.start)/int64(windowDur)), 0), len(b.win)-1)
	cls := 0
	if read {
		cls = 1
	}
	b.win[w][cls].add(lat)
	if lat != math.MaxInt64 {
		b.commits++
	}
}

func (b *levelBook) merge(o *levelBook) {
	for w := range b.win {
		for c := range b.win[w] {
			b.win[w][c].merge(&o.win[w][c])
		}
	}
	b.late.merge(&o.late)
	b.tailLate.merge(&o.tailLate)
	b.commits += o.commits
}

// drift is the median commits per window of the level's second half
// over that of its first half, leaving out the last window (it also
// collects the completions after the level's end). Medians keep one
// stalled window from reading as drift.
func (b *levelBook) drift() float64 {
	n := max(len(b.win)-1, 2)
	counts := make([]float64, n)
	for w := range counts {
		if w < len(b.win) {
			counts[w] = float64(b.win[w][0].n + b.win[w][1].n)
		}
	}
	return medianF(counts[n/2:]) / medianF(counts[:n/2])
}

// minWindowSamples is the fewest samples a window group holds, so its
// p99 has at least ten samples beyond it; sparse windows merge with
// their successors until they do.
const minWindowSamples = 1000

// Latency classes of levelBook.win.
var (
	classWrite = []int{0}
	classRead  = []int{1}
	classAll   = []int{0, 1}
)

// windowed is the median over window groups of the q-quantile latency
// of the given classes, in ms, with the sample count. Consecutive
// windows group until each group holds minWindowSamples (a short last
// group joins the one before). A median over many short groups is what
// keeps a run's figure from hinging on how many host stalls it caught.
// Failures count as infinitely late.
func (b *levelBook) windowed(q float64, classes []int) (ms float64, n uint64) {
	var groups []*hist
	cur := new(hist)
	for w := range b.win {
		for _, c := range classes {
			cur.merge(&b.win[w][c])
		}
		if cur.total() >= minWindowSamples {
			groups = append(groups, cur)
			cur = new(hist)
		}
	}
	switch {
	case len(groups) == 0:
		groups = append(groups, cur)
	case cur.total() > 0:
		groups[len(groups)-1].merge(cur)
	}
	var vals []float64
	for _, g := range groups {
		n += g.total()
		if g.total() > 0 {
			vals = append(vals, g.quantile(q)/1e6)
		}
	}
	return medianF(vals), n
}

// pooled merges the level's windows of every class.
func (b *levelBook) pooled() *hist {
	h := new(hist)
	for w := range b.win {
		for c := range b.win[w] {
			h.merge(&b.win[w][c])
		}
	}
	return h
}

// tally is what one driver goroutine counted; loadResult sums them.
type tally struct {
	attempted int
	failed    int
	commits   int
	incrs     int64
	retries   int
	shed      int
	lastDone  int64
	submitNS  []int64 // traced in-process: Submit call durations
	badOutput int     // committed programs whose reply had the wrong shape
	firstErr  error   // the first failure, for the log
}

func (t *tally) noteErr(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.commits += o.commits
	t.incrs += o.incrs
	t.retries += o.retries
	t.shed += o.shed
	t.lastDone = max(t.lastDone, o.lastDone)
	t.submitNS = append(t.submitNS, o.submitNS...)
	t.badOutput += o.badOutput
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// loadResult is what the load generator saw.
type loadResult struct {
	tally
	closed  *levelBook   // the closed-loop phase
	ladder  []*levelBook // the open-loop rate levels, in sp.rates order
	start   int64        // first submission of the closed phase
	peakOut int64        // most programs outstanding at once
}

// runLoad drives the stack for the given time: on wire-open the rate
// ladder takes the first half and the closed loop the second, so the
// closed phase's checked throughput ends at the verdict.
func runLoad(st *stack, seed uint64, seconds float64, clk *clock, t *tracer) *loadResult {
	res := &loadResult{}
	outs := make([]tally, drivers)
	var senders []*sender
	if st.sp.wire {
		seconds /= 2
		for g := range outs {
			senders = append(senders, newSender(st, t, clk, seed, g, &outs[g]))
		}
		res.ladder, res.peakOut = openLoop(senders, seconds)
	}
	res.closed, res.start = closedLoop(st, senders, seed, seconds, clk, t, outs)
	res.peakOut = max(res.peakOut, int64(st.sp.workers*st.sp.depth))
	for g := range outs {
		res.add(&outs[g])
	}
	return res
}

// merged sums the goroutines' books of one level.
func merged(books []*levelBook) *levelBook {
	m := newLevelBook(books[0].start, books[0].end)
	for _, b := range books {
		m.merge(b)
	}
	return m
}

// closedLoop keeps each slot's program outstanding until the phase
// ends, then waits for the outstanding ones. In process a driver
// goroutine keeps several slots outstanding through async Submit and
// times each program from the Submit call to its result callback; on
// the wire each sender owns one slot and times each request.
func closedLoop(st *stack, senders []*sender, seed uint64, seconds float64, clk *clock, t *tracer, outs []tally) (*levelBook, int64) {
	slots := st.sp.slots(seed)
	start := clk.now()
	deadline := start + int64(seconds*float64(time.Second))
	books := make([]*levelBook, drivers)
	var wg sync.WaitGroup
	for g := range books {
		books[g] = newLevelBook(start, deadline)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if senders != nil {
				senders[g].closed(slots[g], books[g], deadline)
			} else {
				driveSlots(st, slots, g, books[g], deadline, clk, t, &outs[g])
			}
		}(g)
	}
	wg.Wait()
	return merged(books), start
}

// completion is a result callback's report to its driver goroutine.
type completion struct {
	slot int
	end  int64
	err  error
}

// driveSlots is one in-process closed-loop driver goroutine: it owns
// slots g, g+drivers, ...
func driveSlots(st *stack, slots []*slotStream, g int, book *levelBook, deadline int64, clk *clock, t *tracer, out *tally) {
	sp := st.sp
	var mine []int
	for k := g; k < len(slots); k += drivers {
		mine = append(mine, k)
	}
	// One completion per outstanding slot at most, so the buffer never
	// fills and callbacks never block a worker.
	ch := make(chan completion, len(mine))
	progs := make([]program, len(slots))
	reads := make([][]int64, len(slots))
	submitted := make([]int64, len(slots))
	roots := make([]int32, len(slots))
	logs := make([]*spanLog, len(slots))
	outstanding := 0
	submit := func(k int) {
		p := &progs[k]
		sp.next(slots[k], p)
		body := server.ProgramBody(p.Ops, &reads[k])
		done := func(err error) { ch <- completion{slot: k, end: clk.now(), err: err} }
		out.attempted++
		outstanding++
		submitted[k] = clk.now()
		var err error
		if st.tb == nil {
			err = st.be.SubmitOn(p.Worker, body, done)
		} else {
			roots[k], logs[k] = -1, nil
			if t.sampled(p.ID) {
				logs[k] = t.newLog(p.ID)
				roots[k] = logs[k].add(-1, spDriver, submitted[k], 0)
			}
			var d int64
			d, err = st.tb.submitTraced(logs[k], roots[k], p.Worker, body, done)
			if roots[k] >= 0 {
				out.submitNS = append(out.submitNS, d)
			}
		}
		if err != nil {
			ch <- completion{slot: k, end: clk.now(), err: err}
		}
	}
	for _, k := range mine {
		submit(k)
	}
	for outstanding > 0 {
		c := <-ch
		outstanding--
		p := &progs[c.slot]
		if st.tb != nil {
			t.endAt(roots[c.slot], c.end)
		}
		lat := c.end - submitted[c.slot]
		if c.err == nil {
			out.commits++
			out.incrs += int64(p.Incrs)
			if len(reads[c.slot]) != len(p.Ops) {
				out.badOutput++
			}
		} else {
			out.failed++
			out.noteErr(fmt.Errorf("program %d: %w", p.ID, c.err))
			lat = math.MaxInt64
		}
		book.record(c.end, lat, p.Read)
		out.lastDone = max(out.lastDone, c.end)
		if c.end < deadline {
			submit(c.slot)
		}
	}
}

// The open loop's overload handling.
const (
	// shedLate sheds an arrival dispatched later than this after it was
	// due: the backlog cap that keeps a stalled system from closing the
	// loop. A shed arrival is a failure.
	shedLate = time.Second
	// maxRetries bounds the retries of an overload-refused request; a
	// request still refused after them is a failure.
	maxRetries = 3
	// identities is the number of rotating client identities.
	identities = 16
)

// openLoop runs each rate level's Poisson schedule from the senders.
// Each arrival is timed from when it was due, not from when a sender
// got to it, so a stall is charged to every arrival it delays; shed
// and refused arrivals count as failures. It returns the merged level
// books and the most arrivals outstanding (due and not finished) at
// once.
func openLoop(senders []*sender, seconds float64) ([]*levelBook, int64) {
	sp := senders[0].st.sp
	per := levelDuration(sp, seconds)
	var levels []*levelBook
	var peak atomic.Int64
	for l, times := range sp.schedule(senders[0].seed, per) {
		base := senders[0].clk.now()
		var next, completed atomic.Int64
		var wg sync.WaitGroup
		books := make([]*levelBook, len(senders))
		for g, s := range senders {
			books[g] = newLevelBook(base, base+int64(per))
			wg.Add(1)
			go func(s *sender, book *levelBook) {
				defer wg.Done()
				s.run(book, l, times, &next, &completed, &peak)
			}(s, books[g])
		}
		wg.Wait()
		levels = append(levels, merged(books))
	}
	return levels, peak.Load()
}

// sender is one wire driver goroutine with its own clients (one per
// rotating identity) and, when traced, its own client codec.
type sender struct {
	st      *stack
	t       *tracer
	clk     *clock
	seed    uint64
	prog    program
	codec   *clientCodec
	clients []*client.Client
	bo      client.Backoff
	out     *tally
}

func newSender(st *stack, t *tracer, clk *clock, seed uint64, g int, out *tally) *sender {
	s := &sender{st: st, t: t, clk: clk, seed: seed, out: out, bo: client.Backoff{Seed: seed*drivers + uint64(g) + 1}}
	var codec server.Codec
	if t != nil {
		s.codec = &clientCodec{Codec: server.JSONCodec{}, t: t}
		codec = s.codec
	}
	base := st.newClient(codec)
	for i := 0; i < identities; i++ {
		s.clients = append(s.clients, base.WithName("bench-"+strconv.Itoa(i)))
	}
	return s
}

// run dispatches level l's arrivals, shared with the other senders
// through next, each when it falls due.
func (s *sender) run(book *levelBook, l int, times []time.Duration, next, completed, peak *atomic.Int64) {
	tail := book.start + (book.end-book.start)*9/10
	for {
		k := int(next.Add(1)) - 1
		if k >= len(times) {
			return
		}
		due := book.start + int64(times[k])
		if w := due - s.clk.now(); w > 0 {
			time.Sleep(time.Duration(w))
		}
		sent := s.clk.now()
		book.late.add(sent - due)
		if due >= tail {
			book.tailLate.add(sent - due)
		}
		dueN := sort.Search(len(times), func(i int) bool { return book.start+int64(times[i]) > sent })
		out := int64(dueN) - completed.Load()
		for old := peak.Load(); out > old && !peak.CompareAndSwap(old, out); old = peak.Load() {
		}
		p := &s.prog
		s.st.sp.arrivalProgram(s.seed, l, k, p)
		if sent-due > int64(shedLate) {
			s.out.attempted++
			s.out.shed++
			s.finish(book, p, server.ExecResponse{}, fmt.Errorf("shed: dispatched %v late", time.Duration(sent-due)), due)
		} else {
			resp, err := s.send(p, k, due, sent)
			s.finish(book, p, resp, err, due)
		}
		completed.Add(1)
	}
}

// closed is one wire closed-loop slot: send the slot's next program as
// soon as the previous one returns, until the deadline.
func (s *sender) closed(slot *slotStream, book *levelBook, deadline int64) {
	p := &s.prog
	for k := 0; ; k++ {
		sent := s.clk.now()
		if sent >= deadline {
			return
		}
		s.st.sp.next(slot, p)
		resp, err := s.send(p, k, sent, sent)
		s.finish(book, p, resp, err, sent)
	}
}

// finish files one wire program's outcome, timed from `from`.
func (s *sender) finish(book *levelBook, p *program, resp server.ExecResponse, err error, from int64) {
	end := s.clk.now()
	lat := end - from
	switch {
	case err == nil && resp.Committed:
		s.out.commits++
		s.out.incrs += int64(p.Incrs)
		if len(resp.Reads) != len(p.Ops) {
			s.out.badOutput++
		}
	case err == nil:
		err = errors.New("program did not commit")
		fallthrough
	default:
		s.out.failed++
		s.out.noteErr(fmt.Errorf("program %d: %w", p.ID, err))
		lat = math.MaxInt64
	}
	book.record(end, lat, p.Read)
	s.out.lastDone = max(s.out.lastDone, end)
}

// send executes one program, retrying overload refusals with the
// client's jittered backoff. due is when the program was scheduled and
// sent when it left the driver; they are equal in the closed loop.
func (s *sender) send(p *program, k int, due, sent int64) (server.ExecResponse, error) {
	s.out.attempted++
	ctx := context.Background()
	var root, exec int32 = -1, -1
	if s.t.sampled(p.ID) {
		log := s.t.newLog(p.ID)
		root = log.add(-1, spDriver, due, 0)
		if sent > due {
			log.add(root, spDriverWait, due, sent)
		}
		exec = log.begin(root, spClientExec)
		ct := &clientTrace{log: log, exec: exec}
		ctx = context.WithValue(ctx, traceKey{}, ct)
		s.codec.cur = ct
	}
	cl := s.clients[k%len(s.clients)]
	var resp server.ExecResponse
	var err error
	for try := 0; ; try++ {
		resp, err = cl.Exec(ctx, p.Worker, p.Ops)
		if err == nil || !errors.Is(err, engine.ErrOverloaded) || try == maxRetries {
			break
		}
		s.out.retries++
		var ce *client.Error
		var hint time.Duration
		if errors.As(err, &ce) {
			hint = ce.RetryAfter
		}
		time.Sleep(s.bo.Next(hint))
	}
	if err == nil {
		s.bo.Reset()
	}
	if root >= 0 {
		s.t.end(exec)
		s.t.end(root)
		s.codec.cur = nil
	}
	return resp, err
}
