package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fixed concurrency of every workload: never the GOMAXPROCS default, and at
// most the two cores of the reference host. README.md gives the measured
// reasons for each value.
const (
	studyWorkers   = 2
	sweepWorkers   = 1
	sampledWorkers = 1
)

// maxInstrs is the per-simulation instruction budget, the farm's default.
const maxInstrs = 500_000_000

// scratchDir makes a fresh directory for a round's stores under the
// checkout's build directory, so a run writes nothing outside its checkout
// and never reads the repository's committed measurement cache.
func scratchDir() (string, func(), error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "round-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// parseAll parses every workload's source, timing the calls as the lang
// layer. Parse memoizes per process, so this is the round's whole parse cost.
func parseAll(ws []workloads.Workload, tr *tracer) {
	for _, w := range ws {
		end := tr.span("lang.parse_ms")
		w.Parse()
		end()
	}
}

// doJobs runs jobs through f in one DoJobs call and returns the results in
// job order, or the first job's error.
func doJobs(f *farm.Farm, jobs []farm.Job) ([]farm.Result, error) {
	res, errs := f.DoJobs(context.Background(), jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memDelta reports the runtime layer over a round: bytes allocated, GC
// pause time and GC cycles since before.
func memDelta(tr *tracer, before *runtime.MemStats) {
	if tr == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	tr.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	tr.addMs("runtime.gc_pause_ms", time.Duration(after.PauseTotalNs-before.PauseTotalNs))
	tr.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
}

// farmLayers reports the farm's counters over a round from two snapshots.
func farmLayers(tr *tracer, before, after farm.Stats) {
	tr.add("farm.hits", float64(after.CacheHits-before.CacheHits))
	tr.add("farm.misses", float64(after.CacheMisses-before.CacheMisses))
	tr.add("farm.coalesced", float64(after.Coalesced-before.Coalesced))
	tr.add("farm.utilization", after.Utilization())
}

// layers gathers a traced round's per-layer metrics: span times, counters,
// derived ratios and the share of the timed interval no span covers.
func layers(tr *tracer, from, to time.Time) map[string]float64 {
	if tr == nil {
		return nil
	}
	out := map[string]float64{}
	tr.mu.Lock()
	for name := range layerUnits {
		out[name] = tr.ms[name] + tr.count[name] // each name is a time or a count
	}
	tr.mu.Unlock()
	if n := out["smarts.builds"] + out["smarts.replays"]; n > 0 {
		out["smarts.replay_ratio"] = out["smarts.replays"] / n
	}
	out["trace.unaccounted_share"] = 1 - tr.covered(from, to)
	return out
}

// binaries compiles each distinct binary once, as the farm's binary cache
// does, timing the compiles as the compiler layer. It backs the traced
// rounds' measure functions, which replace the farm's executor.
type binaries struct {
	tr *tracer
	mu sync.Mutex
	m  map[string]*binary
}

type binary struct {
	ready chan struct{}
	prog  *isa.Program
	err   error
}

func newBinaries(tr *tracer) *binaries {
	return &binaries{tr: tr, m: map[string]*binary{}}
}

// get returns the binary for job, compiling it on first request.
func (b *binaries) get(job farm.Job) (*isa.Program, sim.Config, error) {
	cfg := doe.ToConfig(job.Point)
	key := farm.BinaryKey(job.Workload, job.Point)
	b.mu.Lock()
	e, ok := b.m[key]
	if !ok {
		e = &binary{ready: make(chan struct{})}
		b.m[key] = e
	}
	b.mu.Unlock()
	if ok {
		<-e.ready
		return e.prog, cfg, e.err
	}
	end := b.tr.span("compiler.compile_ms")
	e.prog, _, e.err = compiler.Compile(job.Workload.Parse(), doe.ToOptions(job.Point, cfg.IssueWidth))
	end()
	b.tr.add("compiler.compiles", 1)
	close(e.ready)
	return e.prog, cfg, e.err
}

// measureNs is the tracer counter of time spent inside traced measure
// functions; it is not reported itself (see storeTime).
const measureNs = "measure_ns"

// timed wraps a traced round's measure function, counting the time the
// farm's workers spend inside it.
func timed(tr *tracer, f farm.MeasureFunc) farm.MeasureFunc {
	return func(ctx context.Context, job farm.Job) (farm.Result, error) {
		t0 := time.Now()
		res, err := f(ctx, job)
		tr.add(measureNs, float64(time.Since(t0)))
		return res, err
	}
}

// storeTime adds to farm.store_ms the farm workers' busy time outside the
// measure function between two snapshots: journaling each result to the
// store, plus the farm's own bookkeeping.
func storeTime(tr *tracer, before, after farm.Stats) {
	if tr == nil {
		return
	}
	var busy time.Duration
	for _, w := range after.PerWorker {
		busy += w.Busy
	}
	for _, w := range before.PerWorker {
		busy -= w.Busy
	}
	tr.mu.Lock()
	inside := time.Duration(tr.count[measureNs])
	tr.mu.Unlock()
	tr.addMs("farm.store_ms", busy-inside)
}

// detailedMeasure is the traced stand-in for the farm's detailed executor:
// the same compile (once per binary) and translated-engine simulation, with
// each layer timed.
func detailedMeasure(tr *tracer, bins *binaries) farm.MeasureFunc {
	return func(ctx context.Context, job farm.Job) (farm.Result, error) {
		prog, cfg, err := bins.get(job)
		if err != nil {
			return farm.Result{}, &farm.CompileError{Workload: job.Workload.Key(), Err: err}
		}
		end := tr.span("sim.detailed_ms")
		st, _, err := sim.SimulateEngine(prog, cfg, maxInstrs, sim.EngineBB)
		end()
		if err != nil {
			return farm.Result{}, &farm.SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
		}
		tr.add("sim.detailed_sims", 1)
		tr.add("sim.detailed_minstr", float64(st.Instructions)/1e6)
		return farm.Result{Cycles: float64(st.Cycles), Energy: st.Energy, Instructions: st.Instructions}, nil
	}
}

// exitO0 returns the exit value of w compiled at O0, run functionally: the
// reference every optimized binary of w must reproduce.
func exitO0(w workloads.Workload) (int64, error) {
	prog, _, err := compiler.Compile(w.Parse(), compiler.O0())
	if err != nil {
		return 0, err
	}
	_, exit, err := sim.NewExecutor(prog).Run(maxInstrs)
	return exit, err
}
