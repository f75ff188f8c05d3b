// Pluggable point execution for the experiment harness.
//
// An Executor abstracts "run one (config, benchmark) point to completion"
// so the in-process pool, the content-addressed result cache, and
// wrappers around them (rccsweep's interrupt drain gate, perfbench's
// timed executor) are interchangeable: every figure and sweep rides
// whichever executor the caller wires in, unchanged. Executors must be
// deterministic — the same point always yields the same Result: local
// runs are bit-deterministic by construction, and the cache replays
// bit-identical stored results.
package experiments

import (
	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/resultcache"
	"rccsim/internal/sim"
	"rccsim/internal/workload"
)

// Executor runs one simulation point to completion. Implementations must
// be safe for concurrent use (the Runner and runAll invoke Execute from
// many worker goroutines) and deterministic per (cfg, bench).
type Executor interface {
	Execute(cfg config.Config, b workload.Benchmark) (sim.Result, error)
}

// LocalExecutor runs points in-process — the default, and the leaf of
// every executor chain.
type LocalExecutor struct{}

// Execute runs the simulation in this process.
func (LocalExecutor) Execute(cfg config.Config, b workload.Benchmark) (sim.Result, error) {
	return sim.RunBenchmark(cfg, b)
}

// CachedExecutor consults a content-addressed on-disk result cache before
// simulating in-process, and stores every freshly computed result. Cache
// hits rebuild the full sim.Result from the stored stats: Energy is a pure
// function of (config, stats), so nothing else needs storing. Errors are
// never cached — a failed point is retried on the next run.
type CachedExecutor struct {
	Cache *resultcache.Cache
}

// Execute serves the point from cache when possible.
func (e CachedExecutor) Execute(cfg config.Config, b workload.Benchmark) (sim.Result, error) {
	key := e.Cache.Key(cfg, b.Name)
	if st, ok := e.Cache.Get(key); ok {
		return sim.Result{Config: cfg, Stats: st, Energy: energy.Interconnect(cfg, st)}, nil
	}
	res, err := LocalExecutor{}.Execute(cfg, b)
	if err == nil {
		if perr := e.Cache.Put(key, res.Stats); perr != nil {
			// A write failure only costs a recompute next run; the sweep
			// itself must not fail over cache-disk trouble.
			return res, nil
		}
	}
	return res, err
}

// WithExecutor routes every point of a sweep through ex instead of the
// in-process simulation call. Point-level tracing and heat sketches are
// incompatible with replayed execution, so WithPointTracer and
// WithPointHeat are ignored when an executor is set (the CLIs reject the
// flag combinations up front).
func WithExecutor(ex Executor) RunOpt {
	return func(o *runOpts) { o.exec = ex }
}

// executor returns the Runner's configured executor, defaulting to the
// in-process pool.
func (r *Runner) executor() Executor {
	if r.Exec != nil {
		return r.Exec
	}
	return LocalExecutor{}
}
