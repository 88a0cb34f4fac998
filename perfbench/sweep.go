package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Sweep shape: every ref program at O2 and O3, each binary measured on the
// same seeded Latin hypercube of microarchitectures at issue width 4, so
// each (program, flag set) pair is one binary and one shared-trace group.
const (
	sweepMarchs     = 16
	sweepIssueWidth = 4
	sweepChecks     = 3
)

// sweepJobs generates the sweep's job list from the seed.
func sweepJobs(seed int64, ws []workloads.Workload) []farm.Job {
	rng := rand.New(rand.NewSource(seed))
	marchs := doe.MicroarchSpace().LatinHypercube(sweepMarchs, rng)
	var jobs []farm.Job
	for _, w := range ws {
		for _, opt := range []compiler.Options{compiler.O2(), compiler.O3()} {
			for _, m := range marchs {
				m[0] = sweepIssueWidth
				jobs = append(jobs, farm.Job{Workload: w, Point: doe.JoinPoint(doe.FromOptions(opt), m)})
			}
		}
	}
	return jobs
}

// runSweep measures fixed-flag microarchitecture sweeps, the shape of
// Table 7 and examples/crossarch, through the farm's batch planner, which
// makes each binary's jobs one shared-trace group.
func runSweep(seed int64, _ int, tr *tracer, setupOnly bool) (*round, error) {
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	t0 := time.Now()
	ws := workloads.All(workloads.Ref)
	parseAll(ws, tr)
	end := tr.span("farm.store_ms")
	store, err := farm.Open(filepath.Join(dir, "measurements.json"), nil)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.span("doe.design_ms")
	jobs := sweepJobs(seed, ws)
	end()
	opts := farm.Options{Workers: sweepWorkers, Store: store}
	if tr != nil {
		opts.Measure = timed(tr, groupMeasure(tr, newBinaries(tr), jobs))
	}
	f := farm.New(opts)
	defer f.Close()
	r := &round{SetupS: time.Since(t0).Seconds()}
	if setupOnly {
		return r, nil
	}

	before := f.Stats()
	t1 := time.Now()
	res, err := doJobs(f, jobs)
	if err != nil {
		return nil, err
	}
	end = tr.span("farm.store_ms")
	err = f.Checkpoint()
	end()
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	r.WallS = t2.Sub(t1).Seconds()
	after := f.Stats()
	r.Instrs = after.InstrsSimulated - before.InstrsSimulated
	if tr != nil {
		farmLayers(tr, before, after)
		storeTime(tr, before, after)
		memDelta(tr, &mem0)
		r.Layers = layers(tr, t1, t2)
	}

	keys, bins := map[string]bool{}, map[string]bool{}
	for _, j := range jobs {
		keys[farm.Key(j.Workload, j.Point)] = true
		bins[farm.BinaryKey(j.Workload, j.Point)] = true
	}
	r.Attempted = len(keys)
	want := []count{
		{"simulations", after.SimsExecuted - before.SimsExecuted, int64(len(keys))},
		{"failures", after.Failures - before.Failures, 0},
	}
	if tr == nil {
		want = append(want,
			count{"shared-trace groups", after.BinaryGroups - before.BinaryGroups, int64(len(bins))},
			count{"shared-trace sims", after.TraceSharedSims - before.TraceSharedSims, int64(len(keys))})
	} else {
		// Traced rounds group in their measure function, out of the farm's
		// sight, and count the groups themselves.
		want = append(want,
			count{"shared-trace groups", int64(r.Layers["sim.groups"]), int64(len(bins))},
			count{"shared-trace sims", int64(r.Layers["sim.shared_sims"]), int64(len(keys))})
	}
	if bad := countProblems(want...); len(bad) > 0 {
		r.Failed = r.Attempted
		r.Problems = bad
		return r, nil
	}

	r.Problems = append(r.Problems, checkSweep(seed, jobs, res)...)
	return r, nil
}

// checkSweep requires every configuration of one binary to retire the same
// instruction count, and a seeded sample of (binary, configuration) pairs
// simulated alone to match the shared-trace result bit for bit and return
// the program's O0 exit value.
func checkSweep(seed int64, jobs []farm.Job, res []farm.Result) []string {
	var problems []string
	instrs := map[string]int64{}
	for i, j := range jobs {
		bk := farm.BinaryKey(j.Workload, j.Point)
		if n, ok := instrs[bk]; ok && n != res[i].Instructions {
			problems = append(problems, fmt.Sprintf("%s job %d: %d instructions, other configurations of its binary retire %d",
				j.Workload.Key(), i, res[i].Instructions, n))
		}
		instrs[bk] = res[i].Instructions
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed57d))
	for k := 0; k < sweepChecks; k++ {
		i := rng.Intn(len(jobs))
		problems = append(problems, checkAlone(jobs[i], res[i])...)
	}
	return problems
}

// checkAlone simulates one job by itself with sim.Simulate and compares
// every response with the farm's result and its exit value with the O0
// build's.
func checkAlone(j farm.Job, got farm.Result) []string {
	cfg := doe.ToConfig(j.Point)
	prog, _, err := compiler.Compile(j.Workload.Parse(), doe.ToOptions(j.Point, cfg.IssueWidth))
	if err != nil {
		return []string{fmt.Sprintf("%s: compile: %v", j.Workload.Key(), err)}
	}
	st, err := sim.Simulate(prog, cfg, maxInstrs)
	if err != nil {
		return []string{fmt.Sprintf("%s: simulate: %v", j.Workload.Key(), err)}
	}
	exit, err := exitO0(j.Workload)
	if err != nil {
		return []string{fmt.Sprintf("%s: O0 run: %v", j.Workload.Key(), err)}
	}
	what := j.Workload.Key() + " alone"
	var out []string
	out = append(out, checkEqual(what+" cycles", got.Cycles, float64(st.Cycles))...)
	out = append(out, checkEqual(what+" energy", got.Energy, st.Energy)...)
	out = append(out, checkEqual(what+" instructions", float64(got.Instructions), float64(st.Instructions))...)
	out = append(out, checkExit(what, st.ExitValue, exit)...)
	return out
}

// groupMeasure is the traced stand-in for the farm's shared-trace groups:
// the first job of a binary compiles it once and simulates every job of
// that binary with one sim.SimulateManyOpt call, as the farm's planner
// does; the group's other jobs read their results.
func groupMeasure(tr *tracer, bins *binaries, jobs []farm.Job) farm.MeasureFunc {
	type group struct {
		once sync.Once
		jobs []farm.Job
		res  map[string]farm.Result
		err  error
	}
	groups := map[string]*group{}
	for _, j := range jobs {
		bk := farm.BinaryKey(j.Workload, j.Point)
		g, ok := groups[bk]
		if !ok {
			g = &group{}
			groups[bk] = g
		}
		g.jobs = append(g.jobs, j)
	}
	return func(ctx context.Context, job farm.Job) (farm.Result, error) {
		g := groups[farm.BinaryKey(job.Workload, job.Point)]
		g.once.Do(func() {
			prog, _, err := bins.get(job)
			if err != nil {
				g.err = &farm.CompileError{Workload: job.Workload.Key(), Err: err}
				return
			}
			cfgs := make([]sim.Config, len(g.jobs))
			for i, j := range g.jobs {
				cfgs[i] = doe.ToConfig(j.Point)
			}
			end := tr.span("sim.shared_ms")
			stats, err := sim.SimulateManyOpt(prog, cfgs, maxInstrs, sim.BatchOptions{})
			end()
			if err != nil {
				g.err = &farm.SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
				return
			}
			tr.add("sim.groups", 1)
			tr.add("sim.shared_sims", float64(len(stats)))
			g.res = map[string]farm.Result{}
			for i, st := range stats {
				g.res[farm.Key(g.jobs[i].Workload, g.jobs[i].Point)] = farm.Result{
					Cycles: float64(st.Cycles), Energy: st.Energy, Instructions: st.Instructions,
				}
			}
		})
		return g.res[farm.Key(job.Workload, job.Point)], g.err
	}
}
