// Command perfbench is the repository benchmark: it regenerates one
// workload's figures through the public exp runners, checks every table
// against the digest recorded from the seed commit, and prints the
// end-to-end metrics (--trace 0) or the per-layer breakdown (--trace 1)
// as one JSON object on the last line of standard output.
//
// Every sample runs in a fresh child process of this binary with its own
// exp.Context and its own operand-cache and trace-store directories under
// .bench_build/, so no memo, cache or heap carries from one sample or
// workload to the next. The parent only spawns, times and aggregates.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload tallskinny --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one invocation; children still running at the deadline
// are killed and the run fails without a result.
const runBudget = 170 * time.Second

// A cold workload's run times at least minSetups set-ups, and
// minQuickSetups when one takes under quickSetup, adding set-up-only
// children when its samples alone are fewer.
const (
	minSetups      = 5
	minQuickSetups = 25
	quickSetup     = 0.1 // seconds
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: tallskinny | partition | warm-restart")
		seed    = flag.Uint64("seed", 1, "seed of the layer replay's cell order")
		seconds = flag.Float64("seconds", 15, "seconds of timed samples per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		child   = flag.String("child", "", "internal: run one phase in this process (sample|setup|cold|traced|replay)")
		dir     = flag.String("dir", "", "internal: the child's work directory")
	)
	flag.Parse()
	wl, ok := workloadByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*child, wl, *dir, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(orchestrate(wl, *seed, *seconds, *trace == 1))
}

// childResult is what the parent learns from one child process.
type childResult struct {
	setupS  float64 // spawn to the child's "ready" line
	totalS  float64 // spawn to exit
	maxRSS  float64 // peak resident set, MB
	payload json.RawMessage
}

// run is one invocation's orchestration state.
type run struct {
	ctx      context.Context
	wl       workload
	seed     uint64
	bin      string
	root     string
	seq      int
	expected map[string]string
	checks   int
	failed   int
}

func orchestrate(wl workload, seed uint64, seconds float64, traced bool) int {
	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", wl.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	r := &run{ctx: ctx, wl: wl, seed: seed, bin: bin, root: root, expected: expected}

	var m map[string]metric
	if traced {
		m, err = r.traced()
	} else {
		m, err = r.endToEnd(seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-44s %-16s %s\n", k, strconv.FormatFloat(m[k].Value, 'g', 6, 64), m[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.checks, r.failed, m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampleOut is a timed child's report.
type sampleOut struct {
	usageDelta
	// ProcGCCPUS and ProcGCCycles cover the whole child process, set-up
	// included.
	ProcGCCPUS   float64          `json:"proc_gc_cpu_s"`
	ProcGCCycles uint64           `json:"proc_gc_cycles"`
	Tables       []tableCheck     `json:"tables"`
	Counters     map[string]int64 `json:"counters,omitempty"`
}

// endToEnd takes timed samples until seconds have passed and reports the
// medians.
func (r *run) endToEnd(seconds float64) (map[string]metric, error) {
	coldS, err := r.coldPass()
	if err != nil {
		return nil, err
	}
	var walls, cpus, allocs, rss, setups []float64
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		res, s, err := r.sample("sample")
		if err != nil {
			return nil, err
		}
		walls = append(walls, s.WallS)
		cpus = append(cpus, s.CPUS)
		allocs = append(allocs, float64(s.AllocBytes)/1e6)
		rss = append(rss, res.maxRSS)
		setups = append(setups, res.setupS)
	}
	for !r.wl.warm && (len(setups) < minSetups || median(setups) < quickSetup && len(setups) < minQuickSetups) {
		res, err := r.spawn("setup", r.sampleDir())
		if err != nil {
			return nil, err
		}
		setups = append(setups, res.setupS)
	}
	return map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"alloc_mb":    {median(allocs), "MB"},
		"peak_rss_mb": {median(rss), "MB"},
		"setup_s":     {coldS + median(setups), "s"},
	}, nil
}

// coldPass is warm-restart's set-up: a separate process regenerating the
// figures into the run's empty trace store. It returns the pass's seconds
// (0 for the cold workloads, which have no such pass).
func (r *run) coldPass() (float64, error) {
	if !r.wl.warm {
		return 0, nil
	}
	res, err := r.spawn("cold", r.root)
	if err != nil {
		return 0, err
	}
	var s sampleOut
	if err := json.Unmarshal(res.payload, &s); err != nil {
		return 0, fmt.Errorf("cold pass report: %w", err)
	}
	r.count(s.Tables)
	if stored, _ := filepath.Glob(filepath.Join(r.root, "store", "*.drtt")); len(stored) == 0 {
		return 0, errors.New("cold pass left no traces in the store")
	}
	return res.totalS, nil
}

// sampleDir is the work directory of the next child: the shared run
// directory for warm-restart (its store and operand cache are the warm
// state), a fresh empty one for the cold workloads.
func (r *run) sampleDir() string {
	if r.wl.warm {
		return r.root
	}
	r.seq++
	return filepath.Join(r.root, fmt.Sprintf("s%d", r.seq))
}

// sample runs one timed child and checks its tables.
func (r *run) sample(mode string) (childResult, sampleOut, error) {
	dir := r.sampleDir()
	res, err := r.spawn(mode, dir)
	if err != nil {
		return res, sampleOut{}, err
	}
	if !r.wl.warm {
		os.RemoveAll(dir)
	}
	var s sampleOut
	if err := json.Unmarshal(res.payload, &s); err != nil {
		return res, s, fmt.Errorf("%s report: %w", mode, err)
	}
	r.count(s.Tables)
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: setup %.3fs wall %.3fs cpu %.3fs alloc %.0fMB rss %.0fMB\n",
		r.wl.name, mode, res.setupS, s.WallS, s.CPUS, float64(s.AllocBytes)/1e6, res.maxRSS)
	return res, s, nil
}

// count adds one child's runner calls to the run's correctness tally.
func (r *run) count(tables []tableCheck) {
	n, why := r.wl.countFailures(tables, r.expected)
	r.checks += len(tables)
	r.failed += n
	for _, w := range why {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", r.wl.name, w)
	}
}

// spawn runs this binary as a child in mode with dir as its work
// directory (operand cache dir/ops, trace store dir/store) and waits for
// it to exit.
func (r *run) spawn(mode, dir string) (childResult, error) {
	var res childResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	cmd := exec.CommandContext(r.ctx, r.bin, "--child", mode, "--workload", r.wl.name,
		"--dir", dir, "--seed", strconv.FormatUint(r.seed, 10))
	cmd.Env = append(os.Environ(), "DRT_OPERAND_CACHE="+filepath.Join(dir, "ops"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			res.setupS = time.Since(start).Seconds()
		case strings.HasPrefix(line, "result "):
			res.payload = json.RawMessage(strings.TrimPrefix(line, "result "))
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	res.totalS = time.Since(start).Seconds()
	if waitErr != nil {
		return res, fmt.Errorf("%s child: %w", mode, waitErr)
	}
	if scanErr != nil {
		return res, fmt.Errorf("%s child output: %w", mode, scanErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSS = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	if res.payload == nil && mode != "setup" {
		return res, fmt.Errorf("%s child printed no result", mode)
	}
	return res, nil
}

// traced is the --trace 1 run: the same runners with a collector attached
// at exp.Options.Rec, and the layer replay, between two untraced samples
// whose mean is the reference (bracketing the replay keeps a drift in
// machine speed during the run out of the attribution).
func (r *run) traced() (map[string]metric, error) {
	if _, err := r.coldPass(); err != nil {
		return nil, err
	}
	_, before, err := r.sample("sample")
	if err != nil {
		return nil, err
	}
	_, tr, err := r.sample("traced")
	if err != nil {
		return nil, err
	}
	res, err := r.spawn("replay", r.sampleDir())
	if err != nil {
		return nil, err
	}
	var rp replayOut
	if err := json.Unmarshal(res.payload, &rp); err != nil {
		return nil, fmt.Errorf("replay report: %w", err)
	}
	// The traced pass must build exactly the workloads the replay prepares
	// for the timed phase, or the replay's mirror of the runners' cells has
	// drifted.
	if got := tr.Counters["exp.workload.misses"]; got != int64(rp.TimedBuilds) {
		rp.Failures = append(rp.Failures, fmt.Sprintf("timed phase built %d workloads, the replay mirrors %d", got, rp.TimedBuilds))
	}
	r.checks += rp.Checks + 1
	r.failed += len(rp.Failures)
	for _, f := range rp.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", r.wl.name, "replay:", f)
	}
	_, after, err := r.sample("sample")
	if err != nil {
		return nil, err
	}
	wall := (before.WallS + after.WallS) / 2
	cpu := (before.CPUS + after.CPUS) / 2
	m := rp.Metrics
	c := tr.Counters
	hits := float64(c["exp.tracecache.hits"])
	m["exp.tracecache.hit_frac"] = metric{ratio(hits, hits+float64(c["exp.tracecache.misses"]+c["exp.tracecache.direct"])), "frac"}
	hits = float64(c["trace_store.hits"])
	m["exp.store.hit_frac"] = metric{ratio(hits, hits+float64(c["trace_store.misses"])), "frac"}
	m["trace.overhead_frac"] = metric{tr.WallS/wall - 1, "frac"}
	m["exp.straggler_frac"] = metric{rp.CellMaxS / wall, "frac"}
	m["attrib.unattributed_frac"] = metric{1 - rp.TimedPathS/cpu, "frac"}
	m["go.gc_cpu_s"] = metric{(before.ProcGCCPUS + after.ProcGCCPUS) / 2, "s"}
	m["go.gc_cycles"] = metric{float64(before.ProcGCCycles+after.ProcGCCycles) / 2, "count"}
	return m, nil
}

func median(xs []float64) float64 {
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
