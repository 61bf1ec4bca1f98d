package main

import (
	"bytes"
	"math"
	"testing"
)

// The same seed must give a byte-identical arrival schedule and
// program list; another seed must not.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, err := sp.plan(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sp.plan(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", sp.name)
		}
		c, err := sp.plan(8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", sp.name)
		}
	}
}

// Generated programs stay inside the session and pin disjoint cells to
// the worker owning their partition.
func TestProgramsFitTheSession(t *testing.T) {
	for _, sp := range specs {
		for _, st := range sp.slots(3) {
			var p program
			for i := 0; i < 200; i++ {
				sp.next(st, &p)
				c := sp.mix[p.Cell].cell
				for _, op := range p.Ops {
					if op.Var < 0 || op.Var >= sp.vars {
						t.Fatalf("%s: op on var %d outside [0,%d)", sp.name, op.Var, sp.vars)
					}
					if c.disjoint && op.Var/(c.vars/sp.workers) != p.Worker {
						t.Fatalf("%s: disjoint op on var %d submitted to worker %d", sp.name, op.Var, p.Worker)
					}
				}
			}
		}
	}
}

// The tracing wrappers must be transparent: a traced pass passes the
// same correctness gate as an untraced one, and records spans.
func TestTracedRunPassesTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for a second, twice")
	}
	for _, sp := range specs {
		for _, every := range []uint64{0, 4} {
			traced := every > 0
			pr, err := runPass(sp, 5, 1, every)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if pr.load.commits == 0 || pr.load.failed != 0 {
				t.Errorf("%s traced=%v: %d commits, %d failed", sp.name, traced, pr.load.commits, pr.load.failed)
			}
			if traced && len(pr.tracer.recorded()) == 0 {
				t.Errorf("%s: traced pass recorded no spans", sp.name)
			}
		}
	}
}

// Self time is a span's duration minus its children's. The self times
// of the median program must add up to the driver's median latency;
// the driver span's own self time, open-loop programs and op-traced
// programs are left out.
func TestReconcile(t *testing.T) {
	var spans []span
	for p := int64(0); p < 5; p++ {
		// Program 2 is the median; the others are 10 ns per rank
		// faster or slower in every stage after queueing.
		d := 10 * (p - 2)
		base := int32(len(spans))
		spans = append(spans,
			span{prog: uint64(p), parent: -1, name: spDriver, start: 1000, end: 1100 + d},
			span{prog: uint64(p), parent: base, name: spEngineQueued, start: 1010, end: 1040 + d},
			span{prog: uint64(p), parent: base, name: spEngineAttempt, start: 1050 + d, end: 1080 + d},
			span{prog: uint64(p), parent: base, name: spEnginePostCommit, start: 1080 + d, end: 1090 + d},
		)
	}
	// An open-loop program, started before the closed phase; a
	// closed-loop one still open when the pass ended; an op-traced one.
	spans = append(spans,
		span{prog: 10, parent: -1, name: spDriver, start: 0, end: 5000},
		span{prog: 11, parent: -1, name: spDriver, start: 2000, end: 0},
		span{prog: 12, parent: -1, name: spDriver, start: 2000, end: 9000},
	)
	spans = append(spans,
		span{prog: 12, parent: int32(len(spans) - 1), name: spEngineAttempt, start: 2000, end: 8000},
		span{prog: 12, parent: int32(len(spans)), name: spNativeOp, start: 2000, end: 3000},
	)
	unexplained, self, n := reconcile(spans, 1000, 80)
	if n != 5 {
		t.Fatalf("ranked %d programs, want 5", n)
	}
	want := map[spanName]float64{spDriver: 30, spEngineQueued: 30, spEngineAttempt: 30, spEnginePostCommit: 10, spNativeOp: 0}
	for name, v := range want {
		if self[name] != v {
			t.Errorf("%s self %v, want %v", spanNames[name], self[name], v)
		}
	}
	// The layers explain 70 of the 80 ns the driver measured.
	if math.Abs(unexplained-0.125) > 1e-9 {
		t.Errorf("unexplained %v, want 0.125", unexplained)
	}
	if u, _, _ := reconcile(spans, 1000, 0); !math.IsInf(u, 1) {
		t.Errorf("no end-to-end figure: unexplained %v, want +Inf", u)
	}
	if got := bodyDurations(spans); len(got) != 5 || got[0] != 30 {
		t.Errorf("bodies without op spans %v, want five of 30", got)
	}
}
