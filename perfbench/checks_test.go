package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Each check must pass on a correct result and fail on a perturbed one,
// which shows it is live.

func TestCountProblems(t *testing.T) {
	if p := countProblems(count{"sims", 224, 224}); len(p) != 0 {
		t.Fatalf("matching count flagged: %v", p)
	}
	if p := countProblems(count{"sims", 223, 224}); len(p) != 1 {
		t.Fatalf("count one short not flagged: %v", p)
	}
}

func TestCheckEqual(t *testing.T) {
	if p := checkEqual("c", 1234, 1234); len(p) != 0 {
		t.Fatalf("equal values flagged: %v", p)
	}
	for _, got := range []float64{1235, 1233, math.NaN()} {
		if p := checkEqual("c", got, 1234); len(p) != 1 {
			t.Errorf("%v vs 1234 not flagged", got)
		}
	}
}

func TestCheckExit(t *testing.T) {
	if p := checkExit("x", 42, 42); len(p) != 0 {
		t.Fatalf("equal exit flagged: %v", p)
	}
	if p := checkExit("x", 24, 42); len(p) != 1 {
		t.Fatal("swapped exit value not flagged")
	}
}

func TestCheckFit(t *testing.T) {
	ys := []float64{1, 2, 3, 4} // SST = 5
	if p := checkFit("f", 5, ys); len(p) != 0 {
		t.Fatalf("SSE equal to the mean's flagged: %v", p)
	}
	for _, sse := range []float64{5.01, -1, math.NaN()} {
		if p := checkFit("f", sse, ys); len(p) != 1 {
			t.Errorf("SSE %v not flagged", sse)
		}
	}
}

func TestCheckSpeedups(t *testing.T) {
	good := exp.SpeedupRow{Program: "p", Config: "c", PredictedGA: 1.1, ActualGA: 1.05, ActualO3: 0.98}
	if p := checkSpeedups([]exp.SpeedupRow{good}, 1); len(p) != 0 {
		t.Fatalf("good row flagged: %v", p)
	}
	if p := checkSpeedups([]exp.SpeedupRow{good}, 2); len(p) != 1 {
		t.Fatal("missing row not flagged")
	}
	for _, v := range []float64{0, -1, math.Inf(1), math.NaN()} {
		bad := good
		bad.ActualGA = v
		if p := checkSpeedups([]exp.SpeedupRow{bad}, 1); len(p) != 1 {
			t.Errorf("speedup %v not flagged", v)
		}
	}
}

func TestCheckWithin(t *testing.T) {
	if p := checkWithin("e", 104, 100, 0.05); len(p) != 0 {
		t.Fatalf("4%% off flagged at 5%%: %v", p)
	}
	for _, est := range []float64{106, 94, math.NaN(), 0} {
		if p := checkWithin("e", est, 100, 0.05); len(p) != 1 {
			t.Errorf("estimate %v not flagged", est)
		}
	}
}

// TestCheckAloneLive runs the sweep's independent re-simulation on a real
// job: the farm's own answer passes, the answer one cycle off fails.
func TestCheckAloneLive(t *testing.T) {
	w := workloads.MustGet("179.art", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	res, err := farm.Executor(0)(context.Background(), farm.Job{Workload: w, Point: p})
	if err != nil {
		t.Fatal(err)
	}
	j := farm.Job{Workload: w, Point: p}
	if got := checkAlone(j, res); len(got) != 0 {
		t.Fatalf("farm result flagged: %v", got)
	}
	off := res
	off.Cycles++
	if got := checkAlone(j, off); len(got) != 1 {
		t.Fatalf("result one cycle off: %v", got)
	}
}

// TestExitO0Live checks that the O0 reference exit value agrees with an
// optimized build, so a swapped exit value would be caught.
func TestExitO0Live(t *testing.T) {
	w := workloads.MustGet("181.mcf", workloads.Train)
	want, err := exitO0(w)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := compiler.Compile(w.Parse(), compiler.O3())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Simulate(prog, sim.DefaultConfig(), maxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkExit("mcf O3", st.ExitValue, want); len(p) != 0 {
		t.Fatal(p)
	}
	if p := checkExit("mcf O3", st.ExitValue+1, want); len(p) != 1 {
		t.Fatal("perturbed exit value not flagged")
	}
}

func TestStats(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestSummarizeDropsFailedRounds(t *testing.T) {
	ok := &round{SetupS: 1, WallS: 10, Instrs: 2e7, Attempted: 5}
	bad := &round{SetupS: 9, WallS: 99, Instrs: 1, Attempted: 5, Failed: 5}
	res := summarize([]*round{ok, bad}, []float64{3, 2}, false)
	if res.Attempted != 10 || res.Failed != 5 {
		t.Errorf("attempted %d failed %d, want 10 and 5", res.Attempted, res.Failed)
	}
	if v := res.Metrics["wall_s"].Value; v != 10 {
		t.Errorf("wall_s = %v: a failed round was timed", v)
	}
	if v := res.Metrics["setup_s"].Value; v != 2 {
		t.Errorf("setup_s = %v, want the median of 3, 2 and 1", v)
	}
	if v := res.Metrics["sim_mips"].Value; v != 2 {
		t.Errorf("sim_mips = %v, want 2", v)
	}
	if len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Errorf("metrics %v correct %v", res.Metrics, res.Correct)
	}
	res = summarize([]*round{{Attempted: 1, Problems: []string{"x"}}}, nil, false)
	if res.Correct {
		t.Error("a failed check left the run correct")
	}
}

// TestSummarizeWithoutTimedRounds: when every round had a failed
// operation, the run is not correct and reports no metric values.
func TestSummarizeWithoutTimedRounds(t *testing.T) {
	bad := &round{SetupS: 1, WallS: 10, Instrs: 2e7, Attempted: 5, Failed: 1}
	res := summarize([]*round{bad}, []float64{1, 2}, false)
	if res.Correct || len(res.Metrics) != 0 {
		t.Errorf("correct %v, metrics %v: want not correct and none", res.Correct, res.Metrics)
	}
	if res.Attempted != 5 || res.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 5 and 1", res.Attempted, res.Failed)
	}
	ok := &round{SetupS: 1, WallS: 10, Instrs: 2e7, Attempted: 5}
	tracedBad := &round{WallS: 11, Attempted: 5, Failed: 5, traced: true}
	res = summarize([]*round{ok, tracedBad}, nil, true)
	if res.Correct || len(res.Metrics) != 0 {
		t.Errorf("traced: correct %v, metrics %v: want not correct and none", res.Correct, res.Metrics)
	}
}

// TestDoJobs runs a job list through a farm with a stub measure function:
// the results come back in job order.
func TestDoJobs(t *testing.T) {
	jobs := sweepJobs(4, workloads.All(workloads.Ref)[:2])
	f := farm.New(farm.Options{Workers: 1, Measure: func(_ context.Context, j farm.Job) (farm.Result, error) {
		return farm.Result{Cycles: float64(j.Point[len(j.Point)-1] + 1), Instructions: 1}, nil
	}})
	defer f.Close()
	res, err := doJobs(f, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if want := float64(j.Point[len(j.Point)-1] + 1); res[i].Cycles != want {
			t.Fatalf("job %d: %v, want %v", i, res[i].Cycles, want)
		}
	}
}

func TestJobListsAreSeeded(t *testing.T) {
	ws := workloads.All(workloads.Ref)
	a, b, c := sweepJobs(1, ws), sweepJobs(1, ws), sweepJobs(2, ws)
	if len(a) != len(ws)*2*sweepMarchs {
		t.Fatalf("sweep has %d jobs", len(a))
	}
	if farm.Key(a[5].Workload, a[5].Point) != farm.Key(b[5].Workload, b[5].Point) {
		t.Error("same seed gave different sweeps")
	}
	if farm.Key(a[5].Workload, a[5].Point) == farm.Key(c[5].Workload, c[5].Point) {
		t.Error("different seeds gave the same sweep")
	}
	bins := map[string]bool{}
	for _, j := range a {
		bins[farm.BinaryKey(j.Workload, j.Point)] = true
	}
	if len(bins) != len(ws)*2 {
		t.Errorf("sweep has %d binaries, want one per (program, flag set)", len(bins))
	}

	s := sampledJobs(3, ws)
	if len(s) != len(ws)*sampledGeoms*sampledVariants {
		t.Fatalf("sampled has %d jobs", len(s))
	}
	keys := map[string]bool{}
	for _, j := range s {
		keys[farm.Key(j.Workload, j.Point)] = true
	}
	if len(keys) != len(s) {
		t.Errorf("sampled repeats a job: %d distinct of %d", len(keys), len(s))
	}
	for i := 0; i < len(s); i += sampledVariants {
		g := doe.ToConfig(s[i].Point)
		for _, j := range s[i : i+sampledVariants] {
			c := doe.ToConfig(j.Point)
			if c.WarmGeometry() != g.WarmGeometry() || c.IssueWidth != g.IssueWidth {
				t.Fatalf("variant %v leaves geometry %v", c, g)
			}
		}
	}
}
