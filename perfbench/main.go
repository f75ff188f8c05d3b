// Command perfbench is rccsim's benchmark. It runs one of three closed-loop
// workloads against the simulator's Go API, checks every operation, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the result.
//
//	perfbench --workload figures|simloop|verify --seed N --seconds S --trace 0|1
//
// The untraced run (--trace 0) reports the end-to-end metrics. The traced
// run (--trace 1) spends half its time untraced and half with spans around
// the calls into each layer, and reports the per-layer metrics, the
// tracing overhead and each layer's share of self time. See README.md.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"rccsim/internal/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], benchSize, os.Stdout, os.Stderr))
}

// newBench builds the named workload for seed.
func newBench(name string, seed uint64, sz size) (bench, error) {
	switch name {
	case "figures":
		return newFigures(seed, sz), nil
	case "simloop":
		return newSimloop(seed, sz), nil
	case "verify":
		return newVerify(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, simloop or verify)", name)
}

func run(args []string, sz size, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures, simloop or verify")
	seed := fs.Uint64("seed", 1, "workload seed: config seed of figures and simloop, first fuzz seed of verify")
	seconds := fs.Float64("seconds", 40, "measuring time of the run")
	traced := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the untraced run")
	spansOut := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	b, err := newBench(*name, *seed, sz)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	untracedBudget, minPasses := budget, sz.MinPasses
	if *traced == 1 {
		untracedBudget, minPasses = budget/2, 2
	}
	untraced, _ := phase(b, nil, untracedBudget, minPasses)
	var tracedPasses []*passResult
	var tr *tracer
	var tracedWall time.Duration
	if *traced == 1 {
		tr = newTracer()
		tracedPasses, tracedWall = phase(b, tr, budget/2, 2)
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *name, *seed))
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	res := summarize(b, untraced, tracedPasses, tr, tracedWall)
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	printReport(stdout, *name, *seed, res, defs)
	return 0
}

// phase runs passes for about budget: it stops once the next pass would
// likely end past it, but never before minPasses passes.
func phase(b bench, tr *tracer, budget time.Duration, minPasses int) ([]*passResult, time.Duration) {
	start := time.Now()
	var out []*passResult
	var last time.Duration
	for len(out) < minPasses || time.Since(start)+last <= budget {
		debug.FreeOSMemory() // start every pass from a collected, returned heap
		t := time.Now()
		a := totalAlloc()
		stop := watchRSS()
		pr := b.pass(tr)
		pr.rss = stop()
		pr.alloc = totalAlloc() - a
		if s, ok := b.(setupTimer); ok && tr == nil {
			s.setup(pr) // after the pass's time, allocation and memory window
		}
		out = append(out, pr)
		last = time.Since(t)
	}
	return out, time.Since(start)
}

// setupTimer is a workload whose set-up happens inside a checker that
// cannot be split from outside. Its setup times an equivalent set-up
// into pr.setup, apart from the pass.
type setupTimer interface {
	setup(pr *passResult)
}

// result is a summarized run.
type result struct {
	metrics       map[string]float64
	attempted     int
	failed        int
	failures      []string
	digest        string
	deterministic bool
	walls, twalls []float64  // pass wall times, s
	rss           []float64  // untraced pass peak RSS, MB
	pointTail     [3]float64 // pct, value, beyond
	seedTail      [3]float64
	pointN, seedN int
}

func summarize(b bench, untraced, traced []*passResult, tr *tracer, tracedWall time.Duration) *result {
	all := append(append([]*passResult(nil), untraced...), traced...)
	res := &result{metrics: make(map[string]float64), deterministic: true}
	for _, pr := range untraced {
		res.walls = append(res.walls, pr.wall.Seconds())
		res.rss = append(res.rss, pr.rss)
	}
	for _, pr := range traced {
		res.twalls = append(res.twalls, pr.wall.Seconds())
	}
	for _, pr := range all {
		res.attempted += pr.ops
		res.failed += pr.failed
		res.failures = append(res.failures, pr.failures...)
		if pr.digest != all[0].digest {
			res.deterministic = false
		}
	}
	res.digest = hex.EncodeToString(all[0].digest[:])
	first := all[0]
	m := res.metrics

	// End-to-end, from the untraced passes.
	each := func(prs []*passResult, f func(*passResult) float64) float64 {
		xs := make([]float64, len(prs))
		for i, pr := range prs {
			xs[i] = f(pr)
		}
		return median(xs)
	}
	m["wall_s"] = each(untraced, func(pr *passResult) float64 { return pr.wall.Seconds() })
	m["setup_s"] = each(untraced, func(pr *passResult) float64 { return pr.setup.Seconds() })
	m["alloc_mb"] = each(untraced, func(pr *passResult) float64 { return float64(pr.alloc) / (1 << 20) })
	m["peak_rss_mb"] = each(untraced, func(pr *passResult) float64 { return pr.rss })
	m["sim_sc_kcycles_per_s"] = each(untraced, func(pr *passResult) float64 { return ratio(float64(pr.scCycles)/1e3, pr.scRun.Seconds()) })
	m["sim_wo_kcycles_per_s"] = each(untraced, func(pr *passResult) float64 { return ratio(float64(pr.woCycles)/1e3, pr.woRun.Seconds()) })
	m["fuzz_seeds_per_s"] = each(untraced, func(pr *passResult) float64 { return ratio(float64(pr.fuzzSeeds), pr.fuzzTime.Seconds()) })
	m["mc_runs_per_s"] = each(untraced, func(pr *passResult) float64 { return ratio(float64(pr.mcRuns), pr.mcTime.Seconds()) })
	m["rcc_vs_tcw"] = first.rccVsTCW
	for k, v := range first.agg.counters() {
		m[k] = v
	}
	m["workload.instrs"] = float64(first.instrs)
	m["check.mc_runs"] = float64(first.mcRuns)
	m["check.mc_states"] = float64(first.mcStates)
	m["check.mc_states_per_run"] = ratio(float64(first.mcStates), float64(first.mcRuns))

	if len(traced) == 0 {
		return res
	}
	m["trace.overhead_s"] = each(traced, func(pr *passResult) float64 { return pr.wall.Seconds() }) - m["wall_s"]
	m["workload.gen_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.gen) })
	m["sim.build_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.build) })
	m["sim.run_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.run) })
	m["check.gen_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.checkGen) })
	m["check.enumerate_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.enumerate) })
	m["check.fuzz_sim_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.checkProg - pr.enumerate) })
	m["check.mc_ms"] = each(traced, func(pr *passResult) float64 { return ms(pr.mcTime) })
	m["check.enum_states"] = float64(traced[0].enumStates)
	m["experiments.busy_frac"] = each(traced, func(pr *passResult) float64 {
		return ratio(float64(pr.pointTime), float64(b.lanes())*float64(pr.wall))
	})
	var scRun, woRun, run time.Duration
	var scCyc, woCyc, flits uint64
	var points, seeds []float64
	for _, pr := range traced {
		scRun, woRun, run = scRun+pr.scRun, woRun+pr.woRun, run+pr.run
		scCyc, woCyc, flits = scCyc+pr.scCycles, woCyc+pr.woCycles, flits+pr.flits
		points = append(points, pr.pointMs...)
		seeds = append(seeds, pr.seedMs...)
	}
	m["sim.ns_per_cycle.sc"] = ratio(float64(scRun), float64(scCyc))
	m["sim.ns_per_cycle.wo"] = ratio(float64(woRun), float64(woCyc))
	m["sim.ns_per_flit"] = ratio(float64(run), float64(flits))
	m["experiments.points"] = float64(len(traced[0].pointMs))
	res.pointN, res.seedN = len(points), len(seeds)
	putTail := func(prefix string, xs []float64) [3]float64 {
		pct, v, beyond := tail(xs)
		m[prefix+".p50"] = p50(xs)
		m[prefix+".tail"] = v
		m[prefix+".tail_pct"] = pct
		m[prefix+".samples"] = float64(len(xs))
		return [3]float64{pct, v, float64(beyond)}
	}
	res.pointTail = putTail("experiments.point_ms", points)
	res.seedTail = putTail("check.seed_ms", seeds)
	for l, share := range selfShares(selfTimes(tr.snapshot()), tracedWall, b.lanes()) {
		m["self_share."+l] = share
	}
	return res
}

// paperRCCvsTCW is the paper's claim that RCC-SC performs within 7% of
// TC-Weak on the inter-workgroup benchmarks.
const paperRCCvsTCW = 0.93

func printReport(w io.Writer, name string, seed uint64, res *result, defs []metricDef) {
	h := ledger.Fingerprint("")
	fmt.Fprintf(w, "perfbench %s seed=%d\n", name, seed)
	fmt.Fprintf(w, "pass wall_s: untraced %.3f traced %.3f\n", res.walls, res.twalls)
	fmt.Fprintf(w, "pass peak_rss_mb: %.1f\n", res.rss)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", h.CPU, h.Cores, h.GOMAXPROCS, h.GoVersion)
	fmt.Fprintf(w, "stats digest: sha256:%s (identical across all passes: %v)\n", res.digest, res.deterministic)
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	m := res.metrics
	if v := m["rcc_vs_tcw"]; v != 0 {
		fmt.Fprintf(w, "rcc_vs_tcw %.4f ratio; paper reference >= %.2f (within 7%% of TCW); error %+.1f%%. Otherwise the model is unvalidated against hardware.\n",
			v, paperRCCvsTCW, 100*(v-paperRCCvsTCW)/paperRCCvsTCW)
	}
	if res.pointN > 0 {
		fmt.Fprintf(w, "experiments.point_ms tail = p%.1f %.3f ms (n=%d, %d beyond)\n", res.pointTail[0], res.pointTail[1], res.pointN, int(res.pointTail[2]))
	}
	if res.seedN > 0 {
		fmt.Fprintf(w, "check.seed_ms tail = p%.1f %.3f ms (n=%d, %d beyond)\n", res.seedTail[0], res.seedTail[1], res.seedN, int(res.seedTail[2]))
	}
	// Every figure the run measured, not only the ones the JSON carries.
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m[k], units[k])
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.failed == 0 && res.deterministic,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = value{finite(m[d.Name]), d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite values always encode
	}
	fmt.Fprintln(w, string(b))
}
