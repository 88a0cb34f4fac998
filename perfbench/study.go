package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// studyChecks is how many measured points a study round re-measures
// independently.
const studyChecks = 3

// runStudy runs the paper's pipeline as `empirico -exp all -scale quick`
// does up to Figure 7: RunStudy's loop over the seven train-input programs
// (see studyPrograms), SearchSettings on the three named configurations, and the Figure 7
// measurements, from an empty journaled store. The seed is the harness
// seed, so it selects the D-optimal and test designs and the GA streams.
func runStudy(seed int64, _ int, tr *tracer, setupOnly bool) (*round, error) {
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	t0 := time.Now()
	ws := workloads.All(workloads.Train)
	parseAll(ws, tr)
	h := exp.NewHarness(exp.Quick)
	h.Seed = seed
	h.Workers = studyWorkers
	h.CacheDir = dir
	if tr != nil {
		h.Measure = timed(tr, detailedMeasure(tr, newBinaries(tr)))
	}
	defer h.Close()
	end := tr.span("farm.store_ms")
	h.Farm()
	end()
	// The designs are not set-up: RunStudy computes them for each program
	// inside the timed work, and their cost depends on the seed.
	r := &round{SetupS: time.Since(t0).Seconds()}
	if setupOnly {
		return r, nil
	}

	before := h.FarmStats()
	t1 := time.Now()
	st, err := studyPrograms(h, ws, tr)
	if err != nil {
		return nil, err
	}
	end = tr.span("search.ga_ms")
	found, err := st.SearchSettings(nil)
	end()
	if err != nil {
		return nil, err
	}
	_, rows, err := st.Fig7(found, nil)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	r.WallS = t2.Sub(t1).Seconds()
	after := h.FarmStats()
	r.Instrs = after.InstrsSimulated - before.InstrsSimulated
	if tr != nil {
		farmLayers(tr, before, after)
		storeTime(tr, before, after)
		memDelta(tr, &mem0)
		r.Layers = layers(tr, t1, t2)
	}

	// The expected work, derived from the job list alone: one simulation
	// per distinct measurement key.
	trainPts, testPts := h.TrainDesign(), h.TestDesign()
	keys := map[string]bool{}
	for _, w := range ws {
		for _, p := range append(append([]doe.Point(nil), trainPts...), testPts...) {
			keys[farm.Key(w, p)] = true
		}
	}
	for _, j := range fig7Jobs(ws, found) {
		keys[farm.Key(j.Workload, j.Point)] = true
	}
	r.Attempted = len(keys)
	if bad := countProblems(
		count{"simulations", after.SimsExecuted - before.SimsExecuted, int64(len(keys))},
		count{"failures", after.Failures - before.Failures, 0},
	); len(bad) > 0 {
		r.Failed = r.Attempted
		r.Problems = append(r.Problems, bad...)
		return r, nil
	}

	r.Problems = append(r.Problems, checkStudy(seed, h.Space(), st, found, rows)...)
	return r, nil
}

// studyPrograms is RunStudy's per-program loop, run here so that each
// layer call can be traced: the same designs, measurements, fits and final
// checkpoint, in the same order.
func studyPrograms(h *exp.Harness, ws []workloads.Workload, tr *tracer) (*exp.Study, error) {
	st := &exp.Study{Harness: h, Class: workloads.Train, Models: map[string]map[string]model.Model{}}
	for _, w := range ws {
		end := tr.span("doe.design_ms")
		trainPts, testPts := h.TrainDesign(), h.TestDesign()
		end()
		train, err := h.BuildDataset(w, trainPts)
		if err != nil {
			return nil, err
		}
		test, err := h.BuildDataset(w, testPts)
		if err != nil {
			return nil, err
		}
		end = tr.span("model.fit_ms")
		models, err := exp.FitAllParallel(train, h.Workers)
		end()
		if err != nil {
			return nil, err
		}
		st.Programs = append(st.Programs, &exp.ProgramData{
			Workload: w, TrainPoints: trainPts, TestPoints: testPts, Train: train, Test: test,
		})
		st.Models[w.Key()] = models
	}
	end := tr.span("farm.store_ms")
	err := h.SaveCache()
	end()
	return st, err
}

// fig7Jobs lists the measurements Figure 7 makes: the O2 and O3 baselines
// and the GA point, per program and configuration.
func fig7Jobs(ws []workloads.Workload, found []exp.SearchResult) []farm.Job {
	byKey := map[string]workloads.Workload{}
	for _, w := range ws {
		byKey[w.Key()] = w
	}
	cfgs := map[string][]int64{}
	for _, nc := range exp.NamedConfigs() {
		cfgs[nc.Name] = doe.FromConfig(nc.Config)
	}
	var jobs []farm.Job
	for _, r := range found {
		w := byKey[r.Program]
		jobs = append(jobs,
			farm.Job{Workload: w, Point: doe.JoinPoint(doe.FromOptions(compiler.O2()), cfgs[r.Config])},
			farm.Job{Workload: w, Point: doe.JoinPoint(doe.FromOptions(compiler.O3()), cfgs[r.Config])},
			farm.Job{Workload: w, Point: r.Point})
	}
	return jobs
}

// checkStudy verifies a study round's outputs against computations made
// apart from the farm: a seeded sample of points compiled and simulated
// here with the fused engine, each binary's exit value against its O0
// build, each linear fit against the training mean, every Figure 7 speedup
// and every GA point.
func checkStudy(seed int64, space *doe.Space, st *exp.Study, found []exp.SearchResult, rows []exp.SpeedupRow) []string {
	var problems []string
	rng := rand.New(rand.NewSource(seed ^ 0x5eed57d))
	for k := 0; k < studyChecks; k++ {
		pd := st.Programs[rng.Intn(len(st.Programs))]
		i := rng.Intn(len(pd.TrainPoints))
		p := pd.TrainPoints[i]
		cfg := doe.ToConfig(p)
		prog, _, err := compiler.Compile(pd.Workload.Parse(), doe.ToOptions(p, cfg.IssueWidth))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: compile: %v", pd.Workload.Key(), err))
			continue
		}
		s, err := sim.Simulate(prog, cfg, maxInstrs)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: simulate: %v", pd.Workload.Key(), err))
			continue
		}
		want, err := exitO0(pd.Workload)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: O0 run: %v", pd.Workload.Key(), err))
			continue
		}
		what := fmt.Sprintf("%s train point %d", pd.Workload.Key(), i)
		problems = append(problems, checkEqual(what+" cycles", pd.Train.Y[i], float64(s.Cycles))...)
		problems = append(problems, checkExit(what, s.ExitValue, want)...)
	}
	for _, pd := range st.Programs {
		lin, ok := st.Models[pd.Workload.Key()]["linear"].(*model.LinearModel)
		if !ok {
			problems = append(problems, pd.Workload.Key()+": no linear model")
			continue
		}
		problems = append(problems, checkFit(pd.Workload.Key(), lin.TrainSSE, pd.Train.Y)...)
	}
	problems = append(problems, checkSpeedups(rows, len(st.Programs)*len(exp.NamedConfigs()))...)
	for _, r := range found {
		if err := space.Validate(r.Point); err != nil {
			problems = append(problems, fmt.Sprintf("GA point %s/%s: %v", r.Program, r.Config, err))
		}
	}
	return problems
}
