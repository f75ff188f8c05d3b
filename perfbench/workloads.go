package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"
	"time"

	"rccsim/internal/check"
	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/experiments"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/workload"
)

// size fixes how much work one pass of each workload does. The
// composition of a workload never changes with its size.
type size struct {
	FigScale  float64           // figures: config.Scale of every point
	LoopScale float64           // simloop: config.Scale of every run
	FuzzSeeds int               // verify: consecutive fuzz seeds per pass
	Family    check.FamilyShape // verify: exhaustively model-checked family
	MinPasses int               // passes per phase even when the time is spent
}

// benchSize is the size the benchmark runs at.
var benchSize = size{
	FigScale:  0.5,
	LoopScale: 2,
	FuzzSeeds: 25,
	Family:    check.FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2},
	MinPasses: 3,
}

// bench is one workload: pass runs it once, tracing the calls into each
// layer when tr is non-nil.
type bench interface {
	lanes() int // threads the workload keeps busy
	pass(tr *tracer) *passResult
}

// passResult is what one pass measured. Simulated counters and the
// digest are exact; everything else is host time.
type passResult struct {
	mu sync.Mutex // guards the fields figure workers update

	wall, setup time.Duration
	alloc       uint64
	rss         float64 // peak resident set, MB
	ops, failed int
	failures    []string
	digest      [sha256.Size]byte
	agg         simAgg
	instrs      uint64
	rccVsTCW    float64

	// Simulation host time by call, and what it simulated.
	gen, build, run    time.Duration
	scRun, woRun       time.Duration
	scCycles, woCycles uint64
	flits              uint64
	pointMs            []float64
	pointTime          time.Duration

	// Verification.
	fuzzSeeds           int
	fuzzTime            time.Duration
	checkGen, enumerate time.Duration
	checkProg           time.Duration
	enumStates          int
	seedMs              []float64
	mcRuns, mcStates    int
	mcTime              time.Duration
}

// fail records one failed operation.
func (pr *passResult) fail(op string, err error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.failed++
	if len(pr.failures) < 5 {
		pr.failures = append(pr.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// call times f, inside a span named name when tr is non-nil.
func call(tr *tracer, name string, parent, op int, f func()) time.Duration {
	id := tr.start(name, parent, op)
	t := time.Now()
	f()
	d := time.Since(t)
	tr.stop(id)
	return d
}

// simulate runs b under cfg as Generate → sim.New → Run, timing each call,
// and records the host times in pr.
func simulate(tr *tracer, parent, op int, cfg config.Config, b workload.Benchmark, pr *passResult) (*stats.Run, error) {
	var prog *workload.Program
	gen := call(tr, "workload.Generate", parent, op, func() { prog = b.Generate(cfg) })
	var m *sim.Machine
	var err error
	build := call(tr, "sim.New", parent, op, func() { m, err = sim.New(cfg, prog, nil) })
	var st *stats.Run
	var run time.Duration
	if err == nil {
		run = call(tr, "sim.Run", parent, op, func() { st, err = m.Run() })
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.gen += gen
	pr.build += build
	pr.run += run
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %w", b.Name, cfg.Protocol, err)
	}
	if cfg.Consistency() == config.WO {
		pr.woRun += run
		pr.woCycles += st.Cycles
	} else {
		pr.scRun += run
		pr.scCycles += st.Cycles
	}
	pr.flits += st.TotalFlits()
	return st, nil
}

// checkSim applies the failure rules of a finished simulation: its cycle
// account must close and it must retire the whole program.
func checkSim(cfg config.Config, st *stats.Run, wantInstrs uint64) error {
	if sms, ok := st.AccountedSMs(); !ok || sms != cfg.NumSMs {
		return fmt.Errorf("cycle account does not close (%d of %d SMs)", sms, cfg.NumSMs)
	}
	if st.Instructions < wantInstrs {
		return fmt.Errorf("retired %d of %d instructions", st.Instructions, wantInstrs)
	}
	return nil
}

// digestRun hashes one run's label and wire bytes (the label alone for a
// failed run).
func digestRun(h hash.Hash, label string, st *stats.Run) {
	fmt.Fprintf(h, "%s\n", label)
	if st != nil {
		h.Write(st.WireBytes())
	}
}

// ---------------------------------------------------------------------
// figures

// figVariant is one (protocol, ablation) configuration the six figures
// simulate for every benchmark.
type figVariant struct {
	p           config.Protocol
	renew, pred bool
}

// figVariants are the eight configurations behind Figs 1 and 6–10: the
// six protocols plus the Fig 7 renewal and predictor ablations of RCC.
var figVariants = []figVariant{
	{config.MESI, true, true}, {config.TCS, true, true}, {config.TCW, true, true},
	{config.RCC, true, true}, {config.RCCWO, true, true}, {config.SCIdeal, true, true},
	{config.RCC, false, true}, {config.RCC, true, false},
}

// pointLabel is the label experiments.Runner gives a point in its hooks
// (its own labeller is unexported); the smoke test fails if they differ.
func pointLabel(bench string, cfg config.Config) string {
	l := fmt.Sprintf("%s/%v", bench, cfg.Protocol)
	if !cfg.RCCRenew {
		l += "/-renew"
	}
	if !cfg.RCCPredictor {
		l += "/-pred"
	}
	return l
}

// simPoint is one simulation of a pass and the instructions it must retire.
type simPoint struct {
	bench  workload.Benchmark
	cfg    config.Config
	instrs uint64
}

// figures regenerates Figs 1 and 6–10 through one experiments.Runner.
type figures struct {
	base   config.Config
	jobs   int
	points map[string]simPoint
	labels []string // sorted
}

func newFigures(seed uint64, sz size) *figures {
	base := config.Default()
	base.Seed = seed
	base.Scale = sz.FigScale
	f := &figures{base: base, jobs: 2, points: make(map[string]simPoint)}
	for _, b := range workload.All() {
		instrs := uint64(b.Generate(base).Count().Instrs)
		for _, v := range figVariants {
			cfg := base
			cfg.Protocol, cfg.RCCRenew, cfg.RCCPredictor = v.p, v.renew, v.pred
			l := pointLabel(b.Name, cfg)
			f.points[l] = simPoint{b, cfg, instrs}
			f.labels = append(f.labels, l)
		}
	}
	sort.Strings(f.labels)
	return f
}

func (f *figures) lanes() int { return f.jobs }

// openPoint is a point the Runner has started.
type openPoint struct {
	span, op int
	start    time.Time
}

// spanExec runs a point as experiments.LocalExecutor does (Generate →
// sim.New → Run), timing each call inside spans parented by the point's
// experiments.point span. With a nil tracer only the timing remains.
type spanExec struct {
	tr   *tracer
	pr   *passResult
	open func(label string) openPoint
}

func (e spanExec) Execute(cfg config.Config, b workload.Benchmark) (sim.Result, error) {
	pt := e.open(pointLabel(b.Name, cfg))
	st, err := simulate(e.tr, pt.span, pt.op, cfg, b, e.pr)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Result{Config: cfg, Stats: st, Energy: energy.Interconnect(cfg, st)}, nil
}

func (f *figures) pass(tr *tracer) *passResult {
	pr := &passResult{}
	r := experiments.NewRunnerJobs(f.base, f.jobs)
	var mu sync.Mutex
	runs := make(map[string]*stats.Run)
	open := make(map[string]openPoint)
	figSpan := 0
	r.Started = func(label string) {
		mu.Lock()
		defer mu.Unlock()
		op := tr.newOp()
		open[label] = openPoint{tr.start("experiments.point", figSpan, op), op, time.Now()}
	}
	r.Exec = spanExec{tr: tr, pr: pr, open: func(label string) openPoint {
		mu.Lock()
		defer mu.Unlock()
		return open[label]
	}}
	r.Observe = func(label string, st *stats.Run) {
		mu.Lock()
		defer mu.Unlock()
		if pt, ok := open[label]; ok {
			tr.stop(pt.span)
			d := time.Since(pt.start)
			pr.mu.Lock()
			pr.pointMs = append(pr.pointMs, ms(d))
			pr.pointTime += d
			pr.mu.Unlock()
		}
		runs[label] = st
	}

	var fig9 []experiments.Fig9Row
	figs := []struct {
		name string
		run  func() error
	}{
		{"Fig1", func() error { _, err := r.Fig1(); return err }},
		{"Fig6", func() error { _, err := r.Fig6(); return err }},
		{"Fig7", func() error { _, err := r.Fig7(); return err }},
		{"Fig8", func() error { _, err := r.Fig8(); return err }},
		{"Fig9", func() error { var err error; fig9, err = r.Fig9(); return err }},
		{"Fig10", func() error { _, err := r.Fig10(); return err }},
	}
	root := tr.start("figures.pass", 0, 0)
	start := time.Now()
	var figErr []string
	for _, fg := range figs {
		id := tr.start("experiments."+fg.name, root, 0)
		mu.Lock()
		figSpan = id
		mu.Unlock()
		if err := fg.run(); err != nil {
			figErr = append(figErr, fg.name+": "+err.Error())
		}
		tr.stop(id)
	}
	pr.wall = time.Since(start)
	tr.stop(root)
	pr.setup = pr.gen + pr.build

	// Check and hash every point in label order; a failed point was
	// observed with nil stats, and one that never ran is missing.
	h := sha256.New()
	for _, l := range f.labels {
		pt := f.points[l]
		pr.ops++
		pr.instrs += pt.instrs
		st, ok := runs[l]
		digestRun(h, l, st)
		switch {
		case !ok:
			pr.fail(l, fmt.Errorf("point never ran"))
		case st == nil:
			pr.fail(l, fmt.Errorf("simulation failed"))
		default:
			if err := checkSim(pt.cfg, st, pt.instrs); err != nil {
				pr.fail(l, err)
			}
			pr.agg.add(st, energy.Interconnect(pt.cfg, st).Total())
		}
	}
	for l := range runs {
		if _, ok := f.points[l]; !ok {
			pr.ops++
			pr.fail(l, fmt.Errorf("unexpected point"))
		}
	}
	if len(figErr) > 0 && pr.failed == 0 {
		pr.fail("figures", fmt.Errorf("%s", strings.Join(figErr, "; ")))
	}
	if fig9 != nil {
		inter, _ := experiments.SpeedupGMeans(fig9)
		pr.rccVsTCW = ratio(inter[config.RCC], inter[config.TCW])
	}
	copy(pr.digest[:], h.Sum(nil))
	return pr
}

// ---------------------------------------------------------------------
// simloop

// simloop runs DLB and NDL under RCC, MESI, TCW and RCC-WO, one at a time.
type simloop struct {
	runs []simPoint
}

func newSimloop(seed uint64, sz size) *simloop {
	s := &simloop{}
	for _, name := range []string{"DLB", "NDL"} {
		b, _ := workload.ByName(name)
		for _, p := range []config.Protocol{config.RCC, config.MESI, config.TCW, config.RCCWO} {
			cfg := config.Default()
			cfg.Protocol = p
			cfg.Seed = seed
			cfg.Scale = sz.LoopScale
			s.runs = append(s.runs, simPoint{b, cfg, uint64(b.Generate(cfg).Count().Instrs)})
		}
	}
	return s
}

func (s *simloop) lanes() int { return 1 }

func (s *simloop) pass(tr *tracer) *passResult {
	pr := &passResult{}
	h := sha256.New()
	root := tr.start("simloop.pass", 0, 0)
	start := time.Now()
	for _, r := range s.runs {
		label := pointLabel(r.bench.Name, r.cfg)
		pr.ops++
		pr.instrs += r.instrs
		st, err := simulate(tr, root, tr.newOp(), r.cfg, r.bench, pr)
		if err == nil {
			err = checkSim(r.cfg, st, r.instrs)
			pr.agg.add(st, energy.Interconnect(r.cfg, st).Total())
		}
		if err != nil {
			pr.fail(label, err)
		}
		digestRun(h, label, st)
	}
	pr.wall = time.Since(start)
	tr.stop(root)
	pr.setup = pr.gen + pr.build
	copy(pr.digest[:], h.Sum(nil))
	return pr
}

// ---------------------------------------------------------------------
// verify

// verify fuzzes consecutive seeds against the SC oracle, then model-checks
// a small program family exhaustively under RCC.
type verify struct {
	first  uint64
	seeds  int
	opts   check.Options
	mc     check.MCOptions
	shape  check.FamilyShape
	family []*check.Prog
}

func newVerify(seed uint64, sz size) *verify {
	mc := check.DefaultMCOptions()
	mc.Protocol = config.RCC
	mc.Graph = false
	return &verify{
		first:  seed,
		seeds:  sz.FuzzSeeds,
		opts:   check.DefaultOptions(),
		mc:     mc,
		shape:  sz.Family,
		family: check.EnumFamily(sz.Family),
	}
}

func (v *verify) lanes() int { return 1 }

// setup times what the checker's set-up consists of, which it does not
// expose: generating every fuzz program and the family, and building one
// machine per family program. It runs outside the pass, so none of its
// time or memory counts in the pass's figures. It takes a few
// milliseconds, so it is repeated setupReps times and the median kept.
func (v *verify) setup(pr *passResult) {
	const setupReps = 9
	times := make([]float64, setupReps)
	for r := range times {
		t := time.Now()
		for i := 0; i < v.seeds; i++ {
			check.Generate(v.first+uint64(i), v.opts.Gen)
		}
		for _, p := range check.EnumFamily(v.shape) {
			cfg := config.Small()
			cfg.Protocol = v.mc.Protocol
			cfg.NumSMs, cfg.WarpsPerSM = p.MachineShape()
			wl, err := p.WorkloadDelays(cfg, make([]uint32, len(p.Threads)))
			if err == nil {
				_, err = sim.New(cfg, wl, nil)
			}
			if err != nil && r == 0 {
				pr.fail("setup "+p.String(), err)
			}
		}
		times[r] = float64(time.Since(t))
	}
	pr.setup = time.Duration(median(times))
}

func (v *verify) pass(tr *tracer) *passResult {
	pr := &passResult{}
	h := sha256.New()
	root := tr.start("verify.pass", 0, 0)
	start := time.Now()
	for i := 0; i < v.seeds; i++ {
		seed := v.first + uint64(i)
		op := tr.newOp()
		var p *check.Prog
		g := call(tr, "check.Generate", root, op, func() { p = check.Generate(seed, v.opts.Gen) })
		// CheckProg repeats this enumeration internally; the traced run
		// times it once more on its own to split CheckProg's time.
		var states int
		var e time.Duration
		var eerr error
		if tr != nil {
			e = call(tr, "check.EnumerateStats", root, op, func() { _, states, _, eerr = p.EnumerateStats(v.opts.Limits) })
		}
		var fail *check.Failure
		var err error
		c := call(tr, "check.CheckProg", root, op, func() { fail, err = check.CheckProg(p, v.opts) })
		if err == nil {
			err = eerr
		}
		pr.checkGen += g
		pr.enumerate += e
		pr.checkProg += c
		pr.enumStates += states
		pr.seedMs = append(pr.seedMs, ms(g+c))
		pr.ops++
		pr.fuzzSeeds++
		verdict := "sc"
		switch {
		case err != nil:
			pr.fail(fmt.Sprintf("fuzz seed %d", seed), err)
			verdict = "error: " + err.Error()
		case fail != nil:
			pr.fail(fmt.Sprintf("fuzz seed %d", seed), fail)
			verdict = fail.Error()
		}
		fmt.Fprintf(h, "seed %d: %s\n", seed, verdict)
	}
	pr.fuzzTime = time.Since(start)

	mcStart := time.Now()
	for i, p := range v.family {
		var res *check.MCResult
		var err error
		call(tr, "check.ModelCheck", root, tr.newOp(), func() { res, err = check.ModelCheck(p, v.mc) })
		pr.ops++
		name := fmt.Sprintf("family program %d", i)
		if err != nil {
			pr.fail(name, err)
			fmt.Fprintf(h, "mc %d: error: %v\n", i, err)
			continue
		}
		pr.mcRuns += res.Runs
		pr.mcStates += res.States
		switch {
		case res.Failure != nil:
			pr.fail(name, res.Failure.Failure)
		case res.Failures > 0:
			pr.fail(name, fmt.Errorf("%d violating runs", res.Failures))
		case res.Truncated:
			pr.fail(name, fmt.Errorf("exploration truncated after %d runs", res.Runs))
		}
		fmt.Fprintf(h, "mc %d: runs=%d states=%d depth=%d failures=%d truncated=%v outcomes=%s\n",
			i, res.Runs, res.States, res.MaxDepth, res.Failures, res.Truncated, outcomeKey(res.Outcomes))
	}
	pr.mcTime = time.Since(mcStart)
	pr.wall = time.Since(start)
	tr.stop(root)
	copy(pr.digest[:], h.Sum(nil))
	return pr
}

// outcomeKey renders an outcome set canonically.
func outcomeKey(out map[string]map[string]bool) string {
	var keys []string
	for o, mems := range out {
		for m := range mems {
			keys = append(keys, o+"|"+m)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
