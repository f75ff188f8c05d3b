package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rccsim/internal/check"
	"rccsim/internal/config"
	"rccsim/internal/experiments"
	"rccsim/internal/stats"
	"rccsim/internal/workload"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{0, 0, 0, 0},
		{1, 100, 1, 0},                 // a lone sample is its own median
		{5, 60, 3, 2},                  // below 2×minBeyond: the median
		{15, 53.333333333333336, 8, 7}, // n-10 would fall under the median
		{20, 50, 10, 10},               // the first size with a tail of 10 beyond
		{21, 52.38095238095238, 11, 10},
		{100, 90, 90, 10},
		{1000, 99, 990, 10},
	}
	for _, c := range cases {
		pct, v, beyond := tail(seq(c.n))
		if pct != c.pct || v != c.value || beyond != c.beyond {
			t.Errorf("tail(n=%d) = p%v %v (%d beyond), want p%v %v (%d beyond)", c.n, pct, v, beyond, c.pct, c.value, c.beyond)
		}
	}
	if got := p50([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("p50 = %v, want nearest-rank 2", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSimAggExact(t *testing.T) {
	a := &stats.Run{Cycles: 100, Instructions: 300, MemOps: 40, L1Loads: 10, L1LoadHits: 4, L1LoadExpired: 1,
		L2Accesses: 8, L2Misses: 2, DRAMRowHits: 3, DRAMRowMisses: 1, DRAMReads: 3, DRAMWrites: 1}
	a.CycleAccount[stats.CatIssued] = 150
	a.CycleAccount[stats.CatDRAM] = 50
	a.Flits[stats.MsgReq] = 6
	a.Flits[stats.MsgLdData] = 30
	b := &stats.Run{Cycles: 50, Instructions: 100, MemOps: 10, L1Loads: 10, L1LoadHits: 6,
		L2Accesses: 2, L2Misses: 2, L1Renewed: 5, Invalidations: 7}
	b.CycleAccount[stats.CatIssued] = 100
	b.Flits[stats.MsgInvCtl] = 4

	var ab, ba simAgg
	ab.add(a, 1.5)
	ab.add(b, 2.5)
	ba.add(b, 2.5)
	ba.add(a, 1.5)
	got, rev := ab.counters(), ba.counters()
	want := map[string]float64{
		"sim_cycles":              150,
		"gpu.ipc":                 400.0 / 150,
		"gpu.memops":              50,
		"gpu.cycles.issued":       250.0 / 300,
		"gpu.cycles.dram":         50.0 / 300,
		"gpu.cycles.fence":        0,
		"core.l1_hit_rate":        0.5,
		"core.l1_expired_rate":    0.05,
		"core.l1_renewed":         5,
		"coherence.l2_accesses":   10,
		"coherence.l2_miss_rate":  0.4,
		"coherence.invalidations": 7,
		"noc.flits":               40,
		"noc.flits.request":       6,
		"noc.flits.load-data":     30,
		"noc.flits.inv":           4,
		"noc.flits_per_instr":     0.1,
		"mem.dram_accesses":       4,
		"mem.dram_row_hit_rate":   0.75,
		"energy.noc_nj":           4,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	for k, v := range got {
		if rev[k] != v {
			t.Errorf("%s depends on run order: %v vs %v", k, v, rev[k])
		}
	}
	var cats float64
	for _, c := range stats.CycleCats() {
		cats += got["gpu.cycles."+c.String()]
	}
	if math.Abs(cats-1) > 1e-12 {
		t.Errorf("cycle shares sum to %v, want 1", cats)
	}
}

func TestSelfShares(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "simloop.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiments.Fig1", Start: 0, End: 60},
		{ID: 3, Parent: 2, Name: "sim.Run", Start: 10, End: 30},
		{ID: 4, Parent: 2, Name: "sim.Run", Start: 20, End: 50}, // overlaps span 3
		{ID: 5, Parent: 1, Name: "workload.Generate", Start: 60, End: 70},
	}
	self := selfTimes(spans)
	if self["experiments"] != 20 || self["sim.Run"] != 50 || self["workload.Generate"] != 10 {
		t.Fatalf("self times = %v", self)
	}
	sh := selfShares(self, 100, 1)
	if sh["experiments"] != 20 || sh["sim.Run"] != 50 || sh["unattributed"] != 20 {
		t.Errorf("shares = %v", sh)
	}
	sum := 0.0
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// tinySize keeps every workload's composition at a size that runs in
// about a second.
var tinySize = size{
	FigScale:  0.02,
	LoopScale: 0.02,
	FuzzSeeds: 3,
	Family:    check.FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 1, Lines: 2},
	MinPasses: 1,
}

type smokeOut struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

var digestLine = regexp.MustCompile(`(?m)^stats digest: (\S+)`)

// TestSmoke runs every workload, untraced and traced, on the default seed
// and on a held-out one.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"figures", "simloop", "verify"} {
		for _, seed := range []string{"1", "20261017"} {
			digests := map[string]bool{}
			for _, traced := range []string{"0", "1"} {
				var out, errb bytes.Buffer
				args := []string{"--workload", name, "--seed", seed, "--seconds", "0", "--trace", traced,
					"--spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, tinySize, &out, &errb); code != 0 {
					t.Fatalf("%s seed %s trace %s: exit %d: %s", name, seed, traced, code, errb.String())
				}
				text := strings.TrimSpace(out.String())
				var res smokeOut
				if err := json.Unmarshal([]byte(text[strings.LastIndex(text, "\n")+1:]), &res); err != nil {
					t.Fatalf("%s: last line is not the result: %v\n%s", name, err, text)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %s trace %s: correct=%v attempted=%d failed=%d\n%s",
						name, seed, traced, res.Correct, res.Attempted, res.Failed, text)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s: %d metrics printed, want %d", name, len(res.Metrics), len(defs))
				}
				share := 0.0
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("%s trace %s: metric %s missing or without unit %q", name, traced, d.Name, d.Unit)
					}
					if strings.HasPrefix(d.Name, "self_share.") {
						share += v.Value
					}
					if traced == "0" && v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, v.Value)
					}
				}
				if traced == "1" && math.Abs(share-100) > 1e-9 {
					t.Errorf("%s: self shares sum to %v", name, share)
				}
				if m := digestLine.FindStringSubmatch(text); m != nil {
					digests[m[1]] = true
				}
			}
			if len(digests) != 1 {
				t.Errorf("%s seed %s: traced and untraced digests differ: %v", name, seed, digests)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, tinySize, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	if id := tr.start("sim.Run", 0, tr.newOp()); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr.stop(0)
	if d := call(tr, "sim.Run", 0, 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("call timed %v", d)
	}
}

// TestSpanExecMatchesLocal checks that the executor figures installs
// simulates a point exactly as the Runner's default executor does.
func TestSpanExecMatchesLocal(t *testing.T) {
	cfg := config.Default()
	cfg.Scale = 0.02
	for _, p := range []config.Protocol{config.RCC, config.TCW} {
		cfg.Protocol = p
		b, _ := workload.ByName("DLB")
		want, err := experiments.LocalExecutor{}.Execute(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			e := spanExec{tr: tr, pr: &passResult{}, open: func(string) openPoint { return openPoint{} }}
			got, err := e.Execute(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Stats.WireBytes(), want.Stats.WireBytes()) || got.Energy != want.Energy {
				t.Errorf("%v traced=%v: result differs from LocalExecutor", p, tr != nil)
			}
		}
	}
}
