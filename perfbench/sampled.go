package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/smarts"
	"repro/internal/workloads"
)

// Sampled shape: per ref program at O2, sampledGeoms seeded warm
// geometries, each measured under sampledVariants timing-only variants.
const (
	sampledGeoms    = 2
	sampledVariants = 4
	// l2Index is the L2 size's index in the microarchitecture block.
	l2Index       = 7
	sampledChecks = 2
	// sampledTol bounds a SMARTS estimate's relative distance from the
	// detailed simulation's cycles.
	sampledTol = 0.3
)

// sampler is the SMARTS configuration of the sampled workload: one
// 1000-instruction window in every 50, after 200 instructions of detailed
// warming.
var sampler = smarts.Sampler{WindowSize: 1000, Interval: 50, Warmup: 200}

// sampledL2KB fixes the L2 size of each program's geometries: a
// checkpoint set's memory grows with the L2 it snapshots, so pinning the
// sizes, one at the top of the range and one at the typical configuration's,
// keeps peak_rss_mb from depending on the seed.
var sampledL2KB = [sampledGeoms]int64{8192, 1024}

// sampledJobs generates the sampled workload's job list from the seed: a
// Latin hypercube over the microarchitecture space gives every program its
// warm geometries (L1 and predictor shapes, associativities, with the L2
// sizes of sampledL2KB) and an issue width per geometry, which stays fixed
// because it changes the compiled schedule; a Latin hypercube per geometry
// gives its variants of the timing-only parameters (RUU size and the L1,
// L2 and memory latencies). Stratified draws keep the mix of geometries,
// and so the round's cost, alike across seeds. Jobs are ordered program,
// geometry, variant.
func sampledJobs(seed int64, ws []workloads.Workload) []farm.Job {
	rng := rand.New(rand.NewSource(seed))
	space := doe.MicroarchSpace()
	// Indices of the timing-only parameters in the microarchitecture block.
	timingOnly := []int{2, 6, 9, 10} // ruu-size, dcache-lat, l2-lat, mem-lat
	o2 := doe.FromOptions(compiler.O2())
	geoms := space.LatinHypercube(len(ws)*sampledGeoms, rng)
	var jobs []farm.Job
	for wi, w := range ws {
		for g, base := range geoms[wi*sampledGeoms : (wi+1)*sampledGeoms] {
			base[l2Index] = sampledL2KB[g]
			for _, v := range space.LatinHypercube(sampledVariants, rng) {
				m := append([]int64(nil), base...)
				for _, i := range timingOnly {
					m[i] = v[i]
				}
				jobs = append(jobs, farm.Job{Workload: w, Point: doe.JoinPoint(o2, m)})
			}
		}
	}
	return jobs
}

// runSampled measures through the farm's checkpointed SMARTS mode, which
// does not group: its one worker takes the jobs in list order, so the first
// variant of each (binary, warm geometry) builds its warm-state
// checkpoints and the rest replay the detailed windows.
func runSampled(seed int64, _ int, tr *tracer, setupOnly bool) (*round, error) {
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
	jobs := sampledJobs(seed, ws)
	end()
	s := sampler
	opts := farm.Options{Workers: sampledWorkers, Store: store, Sampler: &s}
	if tr != nil {
		opts.Measure = timed(tr, checkpointMeasure(tr, newBinaries(tr)))
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

	keys, builds := map[string]bool{}, map[string]bool{}
	for _, j := range jobs {
		keys[farm.Key(j.Workload, j.Point)] = true
		builds[fmt.Sprint(farm.BinaryKey(j.Workload, j.Point), doe.ToConfig(j.Point).WarmGeometry())] = true
	}
	r.Attempted = len(keys)
	want := []count{
		{"simulations", after.SimsExecuted - before.SimsExecuted, int64(len(keys))},
		{"failures", after.Failures - before.Failures, 0},
	}
	if tr == nil {
		want = append(want,
			count{"checkpoint builds", after.WarmCkptMisses - before.WarmCkptMisses, int64(len(builds))},
			count{"checkpoint replays", after.WarmCkptHits - before.WarmCkptHits, int64(len(keys) - len(builds))})
	} else {
		// Traced rounds run the checkpoint store in their measure function,
		// out of the farm's sight, and count builds and replays themselves.
		want = append(want,
			count{"checkpoint builds", int64(r.Layers["smarts.builds"]), int64(len(builds))},
			count{"checkpoint replays", int64(r.Layers["smarts.replays"]), int64(len(keys) - len(builds))})
	}
	if bad := countProblems(want...); len(bad) > 0 {
		r.Failed = r.Attempted
		r.Problems = bad
		return r, nil
	}

	r.Problems = append(r.Problems, checkSampled(seed, jobs, res)...)
	return r, nil
}

// checkSampled requires a seeded sample of estimates to equal a fresh
// smarts.Run bit for bit and to lie within sampledTol of the detailed
// simulation's cycles.
func checkSampled(seed int64, jobs []farm.Job, res []farm.Result) []string {
	var problems []string
	rng := rand.New(rand.NewSource(seed ^ 0x5eed57d))
	for k := 0; k < sampledChecks; k++ {
		i := rng.Intn(len(jobs))
		j := jobs[i]
		cfg := doe.ToConfig(j.Point)
		prog, _, err := compiler.Compile(j.Workload.Parse(), doe.ToOptions(j.Point, cfg.IssueWidth))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: compile: %v", j.Workload.Key(), err))
			continue
		}
		fresh, err := smarts.Run(prog, cfg, sampler, maxInstrs)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: smarts.Run: %v", j.Workload.Key(), err))
			continue
		}
		detailed, err := sim.Simulate(prog, cfg, maxInstrs)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: simulate: %v", j.Workload.Key(), err))
			continue
		}
		what := fmt.Sprintf("%s sampled job %d", j.Workload.Key(), i)
		problems = append(problems, checkEqual(what+" estimate", res[i].Cycles, fresh.EstimatedCycles)...)
		problems = append(problems, checkWithin(what+" estimate", res[i].Cycles, float64(detailed.Cycles), sampledTol)...)
	}
	return problems
}

// checkpointMeasure is the traced stand-in for the farm's sampled
// executor: the same compile (once per binary) and smarts.RunCheckpointed
// call against a checkpoint store of the farm's default size, timing
// checkpoint builds and replays apart.
func checkpointMeasure(tr *tracer, bins *binaries) farm.MeasureFunc {
	ckpts := smarts.NewStore(0)
	return func(ctx context.Context, job farm.Job) (farm.Result, error) {
		prog, cfg, err := bins.get(job)
		if err != nil {
			return farm.Result{}, &farm.CompileError{Workload: job.Workload.Key(), Err: err}
		}
		t0 := time.Now()
		res, hit, err := smarts.RunCheckpointed(ckpts, prog, cfg, sampler, maxInstrs)
		if err != nil {
			return farm.Result{}, &farm.SimError{Workload: job.Workload.Key(), Err: err}
		}
		if hit {
			tr.record("smarts.replay_ms", t0, time.Now())
			tr.add("smarts.replays", 1)
		} else {
			tr.record("smarts.build_ms", t0, time.Now())
			tr.add("smarts.builds", 1)
		}
		return farm.Result{Cycles: res.EstimatedCycles, Energy: res.EstimatedEnergy, Instructions: res.Instructions}, nil
	}
}
