package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rccsim/internal/stats"
)

// metricDef names one reported metric. The tables below must match
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ Name, Unit, Better string }

// endToEnd is printed by the untraced run: what a user of rccsim waits
// for or pays, defined on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is printed by the traced run. The first six are end-to-end
// figures that exist on only some workloads (0 elsewhere); they are
// measured in the traced run's untraced half.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sim_sc_kcycles_per_s", "kcycles/s", "higher"},
		{"sim_wo_kcycles_per_s", "kcycles/s", "higher"},
		{"sim_cycles", "cycles", "lower"},
		{"rcc_vs_tcw", "ratio", "higher"},
		{"fuzz_seeds_per_s", "seeds/s", "higher"},
		{"mc_runs_per_s", "runs/s", "higher"},

		{"trace.overhead_s", "s", "lower"},

		{"workload.gen_ms", "ms", "lower"},
		{"workload.instrs", "count", "lower"},
		{"sim.build_ms", "ms", "lower"},
		{"sim.run_ms", "ms", "lower"},
		{"sim.ns_per_cycle.sc", "ns/cycle", "lower"},
		{"sim.ns_per_cycle.wo", "ns/cycle", "lower"},
		{"sim.ns_per_flit", "ns/flit", "lower"},

		{"experiments.points", "count", "lower"},
		{"experiments.point_ms.p50", "ms", "lower"},
		{"experiments.point_ms.tail", "ms", "lower"},
		{"experiments.point_ms.tail_pct", "%", "higher"},
		{"experiments.point_ms.samples", "count", "higher"},
		{"experiments.busy_frac", "frac", "higher"},

		{"check.gen_ms", "ms", "lower"},
		{"check.enumerate_ms", "ms", "lower"},
		{"check.enum_states", "count", "lower"},
		{"check.fuzz_sim_ms", "ms", "lower"},
		{"check.seed_ms.p50", "ms", "lower"},
		{"check.seed_ms.tail", "ms", "lower"},
		{"check.seed_ms.tail_pct", "%", "higher"},
		{"check.seed_ms.samples", "count", "higher"},
		{"check.mc_ms", "ms", "lower"},
		{"check.mc_runs", "count", "lower"},
		{"check.mc_states", "count", "lower"},
		{"check.mc_states_per_run", "ratio", "higher"},

		{"gpu.ipc", "instr/cycle", "higher"},
		{"gpu.memops", "count", "lower"},
	}
	for _, c := range stats.CycleCats() {
		better := "lower"
		if c == stats.CatIssued {
			better = "higher"
		}
		m = append(m, metricDef{"gpu.cycles." + c.String(), "frac", better})
	}
	m = append(m,
		metricDef{"core.l1_hit_rate", "frac", "higher"},
		metricDef{"core.l1_expired_rate", "frac", "lower"},
		metricDef{"core.l1_renewed", "count", "higher"},
		metricDef{"coherence.l2_accesses", "count", "lower"},
		metricDef{"coherence.l2_miss_rate", "frac", "lower"},
		metricDef{"coherence.l2_store_stall_cycles", "cycles", "lower"},
		metricDef{"coherence.invalidations", "count", "lower"},
		metricDef{"noc.flits", "flits", "lower"},
		metricDef{"noc.flits_per_instr", "flits/instr", "lower"},
	)
	for _, c := range stats.MsgClasses() {
		m = append(m, metricDef{"noc.flits." + c.String(), "flits", "lower"})
	}
	m = append(m,
		metricDef{"mem.dram_accesses", "count", "lower"},
		metricDef{"mem.dram_row_hit_rate", "frac", "higher"},
		metricDef{"energy.noc_nj", "nJ", "lower"},
	)
	for _, l := range append(append([]string(nil), layers...), "unattributed") {
		better := "higher"
		if l == "unattributed" {
			better = "lower"
		}
		m = append(m, metricDef{"self_share." + l, "%", better})
	}
	return m
}()

// simAgg sums the simulated counters of every simulation of one pass.
// Integer counters are exact in any order; energy is a float sum, so
// callers add runs in a fixed order.
type simAgg struct {
	st       stats.Run // Merge sums every counter except Cycles
	cycles   uint64
	smCycles uint64 // Σ TotalAccounted = Σ Cycles × NumSMs
	energyNJ float64
}

func (a *simAgg) add(st *stats.Run, energyNJ float64) {
	a.st.Merge(st)
	a.cycles += st.Cycles
	a.smCycles += st.TotalAccounted()
	a.energyNJ += energyNJ
}

// counters renders the aggregate as the simulated per-layer metrics.
func (a *simAgg) counters() map[string]float64 {
	s := &a.st
	m := map[string]float64{
		"gpu.ipc":                         ratio(float64(s.Instructions), float64(a.cycles)),
		"gpu.memops":                      float64(s.MemOps),
		"core.l1_hit_rate":                ratio(float64(s.L1LoadHits), float64(s.L1Loads)),
		"core.l1_expired_rate":            ratio(float64(s.L1LoadExpired), float64(s.L1Loads)),
		"core.l1_renewed":                 float64(s.L1Renewed),
		"coherence.l2_accesses":           float64(s.L2Accesses),
		"coherence.l2_miss_rate":          ratio(float64(s.L2Misses), float64(s.L2Accesses)),
		"coherence.l2_store_stall_cycles": float64(s.L2StoreStallCycles),
		"coherence.invalidations":         float64(s.Invalidations),
		"noc.flits":                       float64(s.TotalFlits()),
		"noc.flits_per_instr":             ratio(float64(s.TotalFlits()), float64(s.Instructions)),
		"mem.dram_accesses":               float64(s.DRAMReads + s.DRAMWrites),
		"mem.dram_row_hit_rate":           ratio(float64(s.DRAMRowHits), float64(s.DRAMRowHits+s.DRAMRowMisses)),
		"energy.noc_nj":                   a.energyNJ,
		"sim_cycles":                      float64(a.cycles),
	}
	for _, c := range stats.CycleCats() {
		m["gpu.cycles."+c.String()] = ratio(float64(s.CycleAccount[c]), float64(a.smCycles))
	}
	for _, c := range stats.MsgClasses() {
		m["noc.flits."+c.String()] = float64(s.Flits[c])
	}
	return m
}

// ratio is x/y, or 0 when y is 0.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// median returns the median of xs (mean of the middle two for even n).
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

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// tail returns the highest nearest-rank percentile of xs that leaves at
// least minBeyond samples above it: pct, its value, and the number of
// samples beyond it. Below 2×minBeyond samples no percentile above the
// median qualifies; the (nearest-rank) median is returned instead, with
// fewer than minBeyond samples beyond it.
func tail(xs []float64) (pct, value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - minBeyond // 1-based rank
	if med := (n + 1) / 2; k < med {
		k = med
	}
	return 100 * float64(k) / float64(n), s[k-1], n - k
}

// p50 is the nearest-rank median, the same statistic tail falls back to.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rssMB returns the process's resident set in MB, or, where /proc is
// unavailable, the memory the Go runtime obtained from the OS.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// watchRSS samples the resident set every few milliseconds until the
// returned function is called; that function waits for the sampler to
// exit and returns the highest sample.
func watchRSS() func() float64 {
	quit := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		p := rssMB()
		for {
			select {
			case <-quit:
				peak <- max(p, rssMB())
				return
			case <-t.C:
				p = max(p, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-peak
	}
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
