// Command livetmbench is the repository's benchmark: it runs one named
// workload against a live-checked TM session, in-process or over the
// wire, checks that the outputs are correct, and prints every metric
// by name with its unit. Run it from the repository root through
// livetmbench/run.sh:
//
//	bash livetmbench/run.sh --workload live-cold-write --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 an untraced and a traced pass split the time, and it
// reports the per-layer metrics, the reconciliation of per-layer self
// times against the end-to-end median, and the tracing overhead. The
// last line of standard output is the result object.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many stacks an untraced run opens to time set-up:
// setupRuns-1 that only commit their first program, then the measured
// one.
const setupRuns = 101

// setupSettle is the pause before each set-up, after a collection, so
// every set-up starts from the same idle, collected process. Set-ups
// run back to back take tens of microseconds that swing with whatever
// the previous one left behind and with host noise of the moment;
// spread over a second or more, their median holds still.
const setupSettle = 10 * time.Millisecond

// settle collects garbage and idles before a timed set-up.
func settle() {
	runtime.GC()
	time.Sleep(setupSettle)
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: live-cold-write, bare-hot-mixed or wire-open")
	seed := flag.Uint64("seed", 1, "seed of the generated programs and arrivals")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansDir := flag.String("spans", "", "directory the traced run writes its spans to (none when empty)")
	flag.Parse()
	sp, err := specByName(*workloadName)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetmbench:", err)
		os.Exit(2)
	}
	res, err := run(sp, *seed, float64(*seconds), *trace == 1, *spansDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetmbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "livetmbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result; a run that
// fails the correctness gate reports no metrics.
func run(sp *spec, seed uint64, seconds float64, traced bool, spansDir string, log io.Writer) (result, error) {
	stampProvenance(log, sp, seed, seconds, traced)
	res := result{Metrics: metricSet{}}
	if !traced {
		var setups []float64
		for i := 0; i < setupRuns-1; i++ {
			settle()
			pr, err := runPass(sp, seed, 0, 0)
			if err != nil {
				return res, fmt.Errorf("set-up run %d: %w", i, err)
			}
			setups = append(setups, pr.setupS)
		}
		settle()
		pr, err := runPass(sp, seed, seconds, 0)
		if pr != nil && pr.load != nil {
			res.Attempted, res.Failed = pr.load.attempted, pr.load.failed
		}
		if err != nil {
			return res, err
		}
		setups = append(setups, pr.setupS)
		if e := pr.load.firstErr; e != nil {
			fmt.Fprintf(log, "failures: %d of %d (shed %d); first: %v\n", pr.load.failed, pr.load.attempted, pr.load.shed, e)
		}
		res.Metrics = e2eMetrics(sp, pr, setups, log)
		res.Correct = true
		return res, nil
	}
	base, err := runPass(sp, seed, seconds/2, 0)
	if err != nil {
		return res, fmt.Errorf("untraced pass: %w", err)
	}
	every := sampleEvery(base.load.attempted, sp.wire)
	fmt.Fprintf(log, "traced pass: spans on one program in %d\n", every)
	pr, err := runPass(sp, seed, seconds/2, every)
	if pr != nil && pr.load != nil {
		res.Attempted = base.load.attempted + pr.load.attempted
		res.Failed = base.load.failed + pr.load.failed
	}
	if err != nil {
		return res, fmt.Errorf("traced pass: %w", err)
	}
	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return res, err
		}
		path := filepath.Join(spansDir, sp.name+".spans.tsv")
		if err := pr.tracer.writeSpans(path); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(pr.tracer.recorded()), path)
	}
	m, err := layerMetrics(base, pr, log)
	if err != nil {
		return res, err
	}
	res.Metrics = m
	res.Correct = true
	return res, nil
}

// stampProvenance prints what produced the numbers: the source tree,
// toolchain, machine and workload parameters.
func stampProvenance(log io.Writer, sp *spec, seed uint64, seconds float64, traced bool) {
	var mix []string
	for _, m := range sp.mix {
		mix = append(mix, fmt.Sprintf("%s:%d", m.cell.name, m.weight))
	}
	p := map[string]any{
		"git":        gitDescribe(),
		"source":     sourceDigest("."),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"started":    time.Now().UTC().Format(time.RFC3339),
		"workload":   sp.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"engine":     engineName,
		"params": map[string]any{
			"workers": sp.workers, "vars": sp.vars, "live": sp.live, "wire": sp.wire,
			"mix": mix, "depth": sp.depth, "rates_per_s": sp.rates, "limit_ms": sp.limitMS,
			"drivers": drivers,
		},
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Fprintf(log, "provenance %s\n", b)
}

// gitDescribe is `git describe --always --dirty` of the working
// directory, or "none" outside a git checkout. Without a .git there,
// git is not run: it would search the parent directories.
func gitDescribe() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files under
// root, so a run outside git still names the exact code it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
