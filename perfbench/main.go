// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload — study, sweep or sampled — for a given
// number of seconds and prints, as the last line of standard output, a JSON
// object with the correctness verdict, the operations attempted and failed,
// and the metrics: the end-to-end ones by default, the per-layer ones with
// --trace 1.
//
// Every round of a run is a fresh child process (the same binary with
// -round), so memory peaks and the parse memo start cold each time.
// Rounds repeat the same seeded work; the run reports medians over them. See README.md for the workloads, metrics and reference figures.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runLimit bounds one run, children included, so a hung round fails the
// run instead of stalling it.
const runLimit = 170 * time.Second

// setupRepeats is how many extra set-up-only processes a run starts, so
// setup_s, a few milliseconds, is a median over several cold set-ups.
const setupRepeats = 49

// round is one child process's report for one pass over a workload's work.
type round struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// Instrs is the program instructions covered by the points measured in
	// the round's wall time.
	Instrs    int64    `json:"instrs"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// PeakRSSMB is the child process's peak resident set, taken by the
	// parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
	// Layers holds the per-layer metrics of a traced round.
	Layers map[string]float64 `json:"layers,omitempty"`

	traced bool
}

// runners maps each workload name to the function running one round.
// With setupOnly a runner returns right after its set-up.
var runners = map[string]func(seed int64, seconds int, tr *tracer, setupOnly bool) (*round, error){
	"study":   runStudy,
	"sweep":   runSweep,
	"sampled": runSampled,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: study|sweep|sampled")
		seed    = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of traced rounds")
		child   = flag.Bool("round", false, "run one round in this process (internal)")
		setup   = flag.Bool("setup-only", false, "with -round, stop after the set-up (internal)")
	)
	flag.Parse()
	run, ok := runners[*name]
	if !ok {
		fatalf("unknown workload %q (study|sweep|sampled)", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *child {
		var tr *tracer
		if *trace == 1 {
			tr = newTracer()
		}
		r, err := run(*seed, *seconds, tr, *setup)
		if err != nil {
			fatalf("%s: %v", *name, err)
		}
		out, err := json.Marshal(r)
		if err != nil {
			fatalf("encode round: %v", err)
		}
		fmt.Println(string(out))
		return
	}
	res, err := runRounds(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runRounds repeats rounds of the workload until the next one would end
// past the measuring time, always running at least one (two when traced:
// an untraced round for the overhead baseline, then a traced one).
func runRounds(name string, seed int64, seconds int, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRepeats && !traced; i++ {
		r, err := runChild(ctx, self, name, seed, seconds, false, true)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, r.SetupS)
	}
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	var rounds []*round
	for i := 0; ; i++ {
		tracedRound := traced && i%2 == 1
		t0 := time.Now()
		r, err := runChild(ctx, self, name, seed, seconds, tracedRound, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		last := time.Since(t0)
		if traced && i == 0 {
			continue
		}
		if time.Since(start)+last > budget {
			break
		}
	}
	return summarize(rounds, setups, traced), nil
}

// runChild runs one round in a fresh process and reads its report from the
// last line of its output.
func runChild(ctx context.Context, self, name string, seed int64, seconds int, traced, setupOnly bool) (*round, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-round", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", tr,
		"-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	r := &round{traced: traced}
	if err := json.Unmarshal(lines[len(lines)-1], r); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return r, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds the rounds into the run's report. Every round's
// operations count toward attempted and failed; a round with a failed
// operation is left out of the timings. End-to-end metrics come from
// untraced rounds, per-layer metrics from traced ones; setup_s is the
// median over the rounds' set-ups and the extra set-ups. When no round is
// left to take a metric from, the run is not correct and reports no
// metrics, rather than values no measurement gave.
func summarize(rounds []*round, setups []float64, traced bool) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, tracedOK []*round
	for _, r := range rounds {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, p := range r.Problems {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		if r.Failed > 0 {
			continue
		}
		if r.traced {
			tracedOK = append(tracedOK, r)
		} else {
			plain = append(plain, r)
		}
	}
	med := func(rs []*round, f func(*round) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	if len(plain) == 0 || traced && len(tracedOK) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no round without failed operations to take metrics from")
		res.Correct = false
		return res
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{med(plain, m.value), m.unit}
		}
		for _, r := range plain {
			setups = append(setups, r.SetupS)
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res
	}
	for _, name := range layerNames() {
		res.Metrics[name] = metric{med(tracedOK, func(r *round) float64 { return r.Layers[name] }), layerUnits[name]}
	}
	wall := func(r *round) float64 { return r.WallS }
	res.Metrics["trace.overhead_s"] = metric{med(tracedOK, wall) - med(plain, wall), "s"}
	return res
}

// endToEnd lists the end-to-end metrics and how each is read off a round.
var endToEnd = []struct {
	name, unit string
	value      func(*round) float64
}{
	{"setup_s", "s", func(r *round) float64 { return r.SetupS }},
	{"wall_s", "s", func(r *round) float64 { return r.WallS }},
	{"sim_mips", "Minstr/s", func(r *round) float64 { return float64(r.Instrs) / r.WallS / 1e6 }},
	{"peak_rss_mb", "MB", func(r *round) float64 { return r.PeakRSSMB }},
}

// layerUnits gives the unit of every per-layer metric a traced round
// reports; trace.overhead_s is added by summarize.
var layerUnits = map[string]string{
	"lang.parse_ms":           "ms",
	"doe.design_ms":           "ms",
	"compiler.compile_ms":     "ms",
	"compiler.compiles":       "count",
	"sim.detailed_ms":         "ms",
	"sim.detailed_sims":       "count",
	"sim.detailed_minstr":     "Minstr",
	"sim.shared_ms":           "ms",
	"sim.shared_sims":         "count",
	"sim.groups":              "count",
	"smarts.build_ms":         "ms",
	"smarts.builds":           "count",
	"smarts.replay_ms":        "ms",
	"smarts.replays":          "count",
	"smarts.replay_ratio":     "ratio",
	"farm.hits":               "count",
	"farm.misses":             "count",
	"farm.coalesced":          "count",
	"farm.store_ms":           "ms",
	"farm.utilization":        "ratio",
	"model.fit_ms":            "ms",
	"search.ga_ms":            "ms",
	"runtime.alloc_mb":        "MB",
	"runtime.gc_pause_ms":     "ms",
	"runtime.gc_cycles":       "count",
	"trace.unaccounted_share": "ratio",
}

func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
