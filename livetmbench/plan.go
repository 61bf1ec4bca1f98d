package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"livetm/internal/engine"
	"livetm/internal/server"
	"livetm/internal/workload"
)

// The benchmark's inputs are a pure function of (workload, seed,
// seconds): every program and every open-loop arrival time is drawn
// from splitmix64 streams keyed by the seed, so two runs with the same
// arguments submit byte-identical work (spec.plan is the witness the
// tests compare).

const golden = 0x9e3779b97f4a7c15

// rng is a splitmix64 stream.
type rng struct{ state uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newRNG derives an independent stream from the seed and stream keys.
func newRNG(keys ...uint64) *rng {
	s := uint64(golden)
	for _, k := range keys {
		s = mix64(s + k*golden)
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state += golden
	return mix64(r.state)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp draws a Poisson inter-arrival gap at rate per second.
func (r *rng) exp(rate float64) time.Duration {
	return time.Duration(-math.Log(1-r.float()) / rate * float64(time.Second))
}

// cell is one workload-matrix cell (mix/contention/sharing) resolved
// against a session with a given worker count: reads plain reads then
// incrs increments by 1, over the cell's variable range — all of it
// when shared, the target worker's partition when disjoint.
type cell struct {
	name     string
	reads    int
	incrs    int
	vars     int
	disjoint bool
	// read marks the read-heavy class reported as read_p99_ms; every
	// other program carries mostly writes (write_p99_ms).
	read bool
}

// newCell resolves "mix/contention/sharing" with the matrix's own axes
// (internal/workload), so the benchmark's cells are the repo's cells.
func newCell(mix, contention string, sharing workload.Sharing, workers int) cell {
	c := cell{name: mix + "/" + contention + "/" + string(sharing), disjoint: sharing == workload.Disjoint}
	for _, m := range workload.Mixes() {
		if m.Name == mix {
			c.reads, c.incrs = m.Reads, m.Writes
		}
	}
	for _, ct := range workload.Contentions() {
		if ct.Name == contention {
			c.vars = workers * ct.VarsPerProc
		}
	}
	if c.reads+c.incrs == 0 || c.vars == 0 {
		panic("livetmbench: unknown cell " + c.name)
	}
	c.read = mix == "readheavy"
	return c
}

// program is one submitted transaction program.
type program struct {
	ID     uint64      `json:"id"`
	Cell   int         `json:"cell"`
	Worker int         `json:"worker"`
	Ops    []server.Op `json:"ops"`
	Incrs  int         `json:"-"`
	Read   bool        `json:"-"`
}

// draw fills p with the next program of the weighted mix. worker pins
// disjoint programs to that worker's partition; a negative worker
// draws the partition (open loop). Shared programs go to any worker.
func (s *spec) draw(r *rng, id uint64, worker int, p *program) {
	u := r.intn(s.totalWeight)
	ci := 0
	for u >= s.mix[ci].weight {
		u -= s.mix[ci].weight
		ci++
	}
	c := s.mix[ci].cell
	p.ID, p.Cell, p.Incrs, p.Read = id, ci, c.incrs, c.read
	p.Ops = p.Ops[:0]
	lo, n := 0, c.vars
	p.Worker = engine.AnyWorker
	if c.disjoint {
		if worker < 0 {
			worker = r.intn(s.workers)
		}
		n = c.vars / s.workers
		lo = worker * n
		p.Worker = worker
	}
	for i := 0; i < c.reads; i++ {
		p.Ops = append(p.Ops, server.Op{Kind: server.OpRead, Var: lo + r.intn(n)})
	}
	for i := 0; i < c.incrs; i++ {
		p.Ops = append(p.Ops, server.Op{Kind: server.OpIncr, Var: lo + r.intn(n), Val: 1})
	}
}

// mixEntry weights one cell of a workload's traffic mix.
type mixEntry struct {
	cell   cell
	weight int
}

// spec declares one workload.
type spec struct {
	name    string
	workers int
	vars    int
	live    bool
	wire    bool
	mix     []mixEntry
	// depth is the closed loop's outstanding programs per worker.
	depth int
	// rates are the open loop's fixed offered rates per second, run in
	// order for equal shares of the measured time.
	rates []float64
	// limitMS is the p99 latency limit a rate (or a closed loop) must
	// meet to count toward max_ok_rate_per_s.
	limitMS float64

	totalWeight int
}

func (s *spec) init() *spec {
	for _, m := range s.mix {
		s.totalWeight += m.weight
		if m.cell.vars > s.vars {
			s.vars = m.cell.vars
		}
	}
	return s
}

// drivers is the load generator's goroutine (and, on the wire, HTTP
// connection) budget: at most nproc, as the workloads promise.
const drivers = 2

// The three workloads. Every write is an incr by 1, so the final
// variable sum must equal the committed incr count.
var specs = []*spec{
	(&spec{
		name:    "live-cold-write",
		workers: 4, live: true, depth: 1, limitMS: 50,
		mix: []mixEntry{
			{newCell("writeheavy", "cold", workload.Disjoint, 4), 7},
			// The read class needs samples: one program in eight is the
			// same cell's read-heavy counterpart.
			{newCell("readheavy", "cold", workload.Disjoint, 4), 1},
		},
	}).init(),
	(&spec{
		name:    "bare-hot-mixed",
		workers: 4, depth: 2, limitMS: 50,
		mix: []mixEntry{
			{newCell("readheavy", "hot", workload.Shared, 4), 1},
			{newCell("writeheavy", "hot", workload.Shared, 4), 1},
		},
	}).init(),
	(&spec{
		name:    "wire-open",
		workers: 2, live: true, wire: true, depth: 1, limitMS: 100,
		rates: []float64{2000, 4000, 6000},
		mix: []mixEntry{
			{newCell("update", "hot", workload.Shared, 2), 3},
			{newCell("readheavy", "cold", workload.Disjoint, 2), 1},
		},
	}).init(),
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// slotStream is one closed-loop slot's program stream: slot k is bound
// to worker k%workers and draws its programs in order from its own
// stream, so the program list is fixed by the seed whichever driver
// goroutine or worker finishes first.
type slotStream struct {
	r      *rng
	worker int
	seq    uint64
	slot   uint64
}

func (s *spec) slots(seed uint64) []*slotStream {
	out := make([]*slotStream, s.workers*s.depth)
	for k := range out {
		out[k] = &slotStream{r: newRNG(seed, 0xc105ed, uint64(k)), worker: k % s.workers, slot: uint64(k)}
	}
	return out
}

// next draws the slot's next program into p (reusing p.Ops).
func (s *spec) next(st *slotStream, p *program) {
	s.draw(st.r, st.slot<<40|st.seq, st.worker, p)
	st.seq++
}

// schedule draws each rate level's Poisson arrival times, as offsets
// from the level's start, for levels lasting per. The programs are
// drawn when dispatched (arrivalProgram), so the schedule costs eight
// bytes an arrival.
func (s *spec) schedule(seed uint64, per time.Duration) [][]time.Duration {
	levels := make([][]time.Duration, len(s.rates))
	for l, rate := range s.rates {
		r := newRNG(seed, 0xa771, uint64(l))
		for at := r.exp(rate); at < per; at += r.exp(rate) {
			levels[l] = append(levels[l], at)
		}
	}
	return levels
}

// arrivalProgram draws the program of level l's k-th arrival into p.
func (s *spec) arrivalProgram(seed uint64, l, k int, p *program) {
	s.draw(newRNG(seed, 0xa7717, uint64(l), uint64(k)), uint64(l+1)<<40|uint64(k), -1, p)
}

// readAll is the gate's audit program: one read of every variable.
func (s *spec) readAll() []server.Op {
	ops := make([]server.Op, s.vars)
	for i := range ops {
		ops[i] = server.Op{Kind: server.OpRead, Var: i}
	}
	return ops
}

// planPrefix is how many programs per closed-loop slot plan encodes.
const planPrefix = 64

// arrival is one open-loop arrival as plan encodes it.
type arrival struct {
	At time.Duration `json:"at_ns"`
	program
}

// plan encodes a run's inputs: each closed-loop slot's first
// planPrefix programs, or every open-loop arrival with its program.
func (s *spec) plan(seed uint64, seconds float64) ([]byte, error) {
	var out struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Slots    [][]program `json:"slots,omitempty"`
		Levels   [][]arrival `json:"levels,omitempty"`
	}
	out.Workload, out.Seed = s.name, seed
	if s.wire {
		for l, times := range s.schedule(seed, levelDuration(s, seconds)) {
			var as []arrival
			for k, at := range times {
				a := arrival{At: at}
				s.arrivalProgram(seed, l, k, &a.program)
				as = append(as, a)
			}
			out.Levels = append(out.Levels, as)
		}
	} else {
		for _, st := range s.slots(seed) {
			var ps []program
			for i := 0; i < planPrefix; i++ {
				var p program
				s.next(st, &p)
				ps = append(ps, p)
			}
			out.Slots = append(out.Slots, ps)
		}
	}
	return json.Marshal(out)
}

// levelDuration splits the measured time evenly over the rate levels.
func levelDuration(s *spec, seconds float64) time.Duration {
	return time.Duration(seconds / float64(len(s.rates)) * float64(time.Second))
}
