package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spectra"
	"spectra/internal/obs"
	"spectra/internal/scenario"
	"spectra/internal/testbed"
)

// simSetupPasses is how many unmeasured evaluation passes a sim-paper run
// makes before its window; setup_s is their median.
const simSetupPasses = 5

// expectations are the figure cells EXPERIMENTS.md records, which every
// evaluation pass must reproduce.
type expectations struct {
	// speech maps a Figure 3 scenario to the starred alternative.
	speech map[string]string
	// latex maps document, then scenario, to the starred alternative of
	// Figures 5 and 6.
	latex map[string]map[string]string
	// candidates is Figure 10's "candidates searched" row.
	candidates []int
}

// loadExpectations reads the starred cells of Figures 3, 5 and 6 and the
// candidate counts of Figure 10 from EXPERIMENTS.md.
func loadExpectations(path string) (expectations, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return expectations{}, fmt.Errorf("read expected figures: %w", err)
	}
	doc := string(buf)
	exp := expectations{latex: map[string]map[string]string{}}

	fig3, err := starredTables(codeBlock(doc, "## Figure 3 "))
	if err != nil || len(fig3["alternative"]) == 0 {
		return exp, fmt.Errorf("%s: no starred Figure 3 table (%v)", path, err)
	}
	exp.speech = fig3["alternative"]

	exp.latex, err = starredTables(codeBlock(doc, "## Figures 5 and 6 "))
	if err != nil || len(exp.latex) != 2 {
		return exp, fmt.Errorf("%s: want two starred Figure 5/6 tables, got %d (%v)", path, len(exp.latex), err)
	}

	for _, line := range strings.Split(codeBlock(doc, "## Figure 10 "), "\n") {
		if rest, ok := strings.CutPrefix(line, "candidates searched"); ok {
			for _, f := range strings.Fields(rest) {
				n, err := strconv.Atoi(f)
				if err != nil {
					return exp, fmt.Errorf("%s: Figure 10 candidates: %w", path, err)
				}
				exp.candidates = append(exp.candidates, n)
			}
		}
	}
	if len(exp.candidates) == 0 {
		return exp, fmt.Errorf("%s: no Figure 10 candidates row", path)
	}
	return exp, nil
}

// codeBlock returns the first fenced block after the heading starting with
// title, or "".
func codeBlock(doc, title string) string {
	i := strings.Index(doc, title)
	if i < 0 {
		return ""
	}
	rest := doc[i:]
	open := strings.Index(rest, "```\n")
	if open < 0 {
		return ""
	}
	rest = rest[open+4:]
	end := strings.Index(rest, "```")
	if end < 0 {
		return ""
	}
	return rest[:end]
}

// starredTables parses figure tables: a header line (table name, then one
// column per scenario) followed by one row per alternative whose chosen
// cells end in '*'. It returns table name → scenario → starred row label.
func starredTables(block string) (map[string]map[string]string, error) {
	out := map[string]map[string]string{}
	var header []string
	for _, line := range strings.Split(block, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			header = nil
		case header == nil:
			header = f
			out[f[0]] = map[string]string{}
		case len(f) == len(header):
			for c, cell := range f[1:] {
				if strings.HasSuffix(cell, "*") {
					scen := header[c+1]
					if prev, dup := out[header[0]][scen]; dup {
						return nil, fmt.Errorf("table %s scenario %s stars both %s and %s", header[0], scen, prev, f[0])
					}
					out[header[0]][scen] = f[0]
				}
			}
		}
	}
	return out, nil
}

// passResult is one evaluation pass: its wall time split by figure runner,
// Figure 9's relative utility and Figure 10's full-cache Begin split.
type passResult struct {
	start                int64 // ns since epoch
	wall                 time.Duration
	speech, latex, pangl time.Duration
	overhead             time.Duration
	relUtility           float64
	bestChoices, cells   int
	choosing, filePred   time.Duration
	problems             []string
}

// runPass reproduces Figures 3–10 once and checks every choice against
// the recorded figures. o is nil outside the traced pass.
func runPass(exp expectations, o *spectra.Observer) (passResult, error) {
	var p passResult
	opts := testbed.Options{Obs: o}
	bad := func(format string, args ...any) { p.problems = append(p.problems, fmt.Sprintf(format, args...)) }
	start := time.Now()
	p.start = now()

	t0 := time.Now()
	speech, err := scenario.RunSpeech(opts)
	if err != nil {
		return p, err
	}
	p.speech = time.Since(t0)
	for _, r := range speech {
		checkChoice(bad, "Figure 3", r, exp.speech[r.Scenario])
	}

	t0 = time.Now()
	latex, err := scenario.RunLatex(opts)
	if err != nil {
		return p, err
	}
	p.latex = time.Since(t0)
	for _, lr := range latex {
		want, ok := exp.latex[lr.Document.Name]
		if !ok {
			bad("Figures 5/6: no recorded table for %s", lr.Document.Name)
			continue
		}
		for _, r := range lr.Results {
			checkChoice(bad, "Figures 5/6 "+lr.Document.Name, r, want[r.Scenario])
		}
	}

	t0 = time.Now()
	pangloss, err := scenario.RunPangloss(opts)
	if err != nil {
		return p, err
	}
	p.pangl = time.Since(t0)
	// EXPERIMENTS.md records percentile 100 in all 15 Figure 8 cells and a
	// mean relative utility of 1.00 in Figure 9.
	var rel float64
	for _, r := range pangloss {
		rel += r.MeanRelativeUtility()
		for _, s := range r.Sentences {
			p.cells++
			if s.Percentile == 100 {
				p.bestChoices++
			} else {
				bad("Figure 8 %s %g words: percentile %g, want 100", r.Scenario, s.Words, s.Percentile)
			}
		}
	}
	if p.cells != 15 {
		bad("Figure 8: %d cells, want 15", p.cells)
	}
	p.relUtility = rel / float64(max(len(pangloss), 1))
	if math.Abs(p.relUtility-1) >= 0.005 {
		bad("Figure 9: mean relative utility %.4f, want 1.00", p.relUtility)
	}

	t0 = time.Now()
	over, err := scenario.RunOverhead(opts)
	if err != nil {
		return p, err
	}
	p.overhead = time.Since(t0)
	if len(over) != len(exp.candidates) {
		bad("Figure 10: %d columns, want %d", len(over), len(exp.candidates))
	}
	for i, r := range over {
		if i < len(exp.candidates) && r.Candidates != exp.candidates[i] {
			bad("Figure 10 column %d: %d candidates searched, want %d", i, r.Candidates, exp.candidates[i])
		}
		if r.FullCache {
			p.choosing, p.filePred = r.Choosing, r.FilePrediction
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

func checkChoice(bad func(string, ...any), fig string, r scenario.ScenarioResult, want string) {
	i := r.ChosenIndex()
	if i < 0 {
		bad("%s %s: no alternative chosen, want %s", fig, r.Scenario, want)
		return
	}
	if got := r.Bars[i].Label; got != want {
		bad("%s %s: chose %s, want %s", fig, r.Scenario, got, want)
	}
}

// simRun is one measured window of evaluation passes.
type simRun struct {
	t0       int64
	length   time.Duration
	elapsed  time.Duration
	passes   []passResult
	acct     accounting
	problems []string
}

// simWindow runs evaluation passes until length has elapsed (at least one).
// perPass, when set, runs around each pass for the traced measurements.
func simWindow(exp expectations, o *spectra.Observer, length time.Duration, perPass func(func() (passResult, error)) (passResult, error)) simRun {
	run := simRun{t0: now(), length: length}
	pass := func() (passResult, error) { return runPass(exp, o) }
	if perPass == nil {
		perPass = func(f func() (passResult, error)) (passResult, error) { return f() }
	}
	deadline := time.Now().Add(length)
	for len(run.passes) == 0 || time.Now().Before(deadline) {
		run.acct.attempted++
		p, err := perPass(pass)
		if err != nil {
			run.acct.errored++
			run.problems = append(run.problems, fmt.Sprintf("pass %d: %v", run.acct.attempted, err))
			if run.acct.errored > 3 {
				break
			}
			continue
		}
		run.acct.completed++
		run.problems = append(run.problems, p.problems...)
		run.passes = append(run.passes, p)
	}
	run.elapsed = time.Duration(now() - run.t0)
	return run
}

// wallMicros returns pass wall times in µs grouped by window slice.
func (r simRun) wallMicros() [][]float64 {
	groups := make([][]float64, windowSlices)
	for _, p := range r.passes {
		i := sliceOf(p.start, r.t0, r.length, windowSlices)
		groups[i] = append(groups[i], float64(p.wall.Nanoseconds())/1e3)
	}
	return groups
}

func passMicros(passes []passResult, f func(passResult) time.Duration) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = float64(f(p).Nanoseconds()) / 1e3
	}
	return out
}

func runSim(opts options) (outcome, error) {
	exp, err := loadExpectations("EXPERIMENTS.md")
	if err != nil {
		return outcome{}, err
	}
	if opts.trace {
		return tracedSim(exp, opts)
	}

	// Set-up: the first passes warm the process (heap growth, code paths)
	// and are not measured; their median is the set-up time.
	var setupTimes []float64
	var problems []string
	for i := 0; i < simSetupPasses; i++ {
		p, err := runPass(exp, nil)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up pass %d: %w", i, err)
		}
		problems = append(problems, p.problems...)
		setupTimes = append(setupTimes, p.wall.Seconds())
	}

	runtime.GC()
	before, err := sampleRuntime()
	if err != nil {
		return outcome{}, err
	}
	rss := startRSS(opts.window)
	run := simWindow(exp, nil, opts.window, nil)
	after, err := sampleRuntime()
	rssMB, rssErr := rss.finish()
	if err := errors.Join(err, rssErr); err != nil {
		return outcome{}, err
	}
	problems = append(problems, run.problems...)
	wall := run.wallMicros()
	var rel float64
	for _, p := range run.passes {
		rel += p.relUtility
	}
	rt := between(before, after)
	acct := run.acct
	printWall(float64(acct.completed)/run.elapsed.Seconds(), sliceQuantile(wall, 0.50), sliceQuantile(wall, 0.99))
	return outcome{
		acct:     acct,
		problems: problems,
		values: map[string]float64{
			"alloc_bytes_per_op": ratio(float64(rt.allocBytes), float64(acct.completed)),
			"cpu_us_per_op":      ratio(float64(rt.cpu.Microseconds()), float64(acct.completed)),
			"peak_rss_mb":        rssMB,
			"setup_s":            median(setupTimes),
			"utility_vs_oracle":  ratio(rel, float64(len(run.passes))),
			"goodput_frac":       ratio(float64(acct.completed), float64(acct.attempted)),
		},
	}, nil
}

// tracedSim is sim-paper's --trace 1 pass: half the window without an
// Observer, as a reference, then the other half with a registry-only
// Observer whose counters and histograms are read around every pass.
func tracedSim(exp expectations, opts options) (outcome, error) {
	if _, err := runPass(exp, nil); err != nil {
		return outcome{}, fmt.Errorf("set-up pass: %w", err)
	}
	half := opts.window / 2
	runtime.GC()
	ref := simWindow(exp, nil, half, nil)
	problems := ref.problems

	o := &spectra.Observer{Registry: obs.NewRegistry()}
	reg := o.Registry
	beginH := reg.Histogram(obs.MBeginSeconds, obs.DefaultLatencyBuckets)
	snapH := reg.Histogram(obs.MSnapshotSeconds, obs.DefaultLatencyBuckets)
	var beginUs, snapUs []float64
	var lines []spanLine
	perPass := func(pass func() (passResult, error)) (passResult, error) {
		b0, bs0 := beginH.Count(), beginH.Sum()
		s0, ss0 := snapH.Count(), snapH.Sum()
		p, err := pass()
		if err != nil {
			return p, err
		}
		if n := beginH.Count() - b0; n > 0 {
			beginUs = append(beginUs, (beginH.Sum()-bs0)/float64(n)*1e6)
		}
		if n := snapH.Count() - s0; n > 0 {
			snapUs = append(snapUs, (snapH.Sum()-ss0)/float64(n)*1e6)
		}
		lines = append(lines, passSpans(uint64(len(lines)), p))
		return p, nil
	}

	runtime.GC()
	before, err := sampleRuntime()
	if err != nil {
		return outcome{}, err
	}
	ctr0 := readCounters(reg)
	run := simWindow(exp, o, half, perPass)
	ctr1 := readCounters(reg)
	after, err := sampleRuntime()
	if err != nil {
		return outcome{}, err
	}
	problems = append(problems, run.problems...)
	passes, acct := run.passes, run.acct
	if err := writeSpans("sim-paper", lines); err != nil {
		return outcome{}, err
	}

	delta := func(name string) int64 { return ctr1[name] - ctr0[name] }
	begins := delta(obs.MOpBegin)
	predicts := delta(obs.MPredictHitBin) + delta(obs.MPredictHitGeneric) + delta(obs.MPredictHitData) + delta(obs.MPredictMiss)
	var best, cells int
	for _, p := range passes {
		best += p.bestChoices
		cells += p.cells
	}
	rt := between(before, after)
	refP50 := sliceQuantile(ref.wallMicros(), 0.5)
	trP50 := sliceQuantile(run.wallMicros(), 0.5)
	ms := func(f func(passResult) time.Duration) float64 { return median(passMicros(passes, f)) / 1e3 }

	acct.add(ref.acct)
	values := map[string]float64{
		"core.begin_p50_us":             quantile(beginUs, 0.50),
		"core.begin_p99_us":             quantile(beginUs, 0.99),
		"core.dcache_agreement":         ratio(float64(best), float64(cells)),
		"core.begin_choosing_us":        median(passMicros(passes, func(p passResult) time.Duration { return p.choosing })),
		"core.begin_file_prediction_us": median(passMicros(passes, func(p passResult) time.Duration { return p.filePred })),
		"monitor.snapshot_p50_us":       quantile(snapUs, 0.50),
		"solver.evals_per_begin":        ratio(float64(delta(obs.MSolverEvaluations)), float64(begins)),
		"predict.miss_frac":             ratio(float64(delta(obs.MPredictMiss)), float64(predicts)),
		"scenario.speech_ms":            ms(func(p passResult) time.Duration { return p.speech }),
		"scenario.latex_ms":             ms(func(p passResult) time.Duration { return p.latex }),
		"scenario.pangloss_ms":          ms(func(p passResult) time.Duration { return p.pangl }),
		"scenario.overhead_ms":          ms(func(p passResult) time.Duration { return p.overhead }),
		"gc.cycles_per_kop":             perKop(int64(rt.gcCycles), begins),
		"gc.cpu_frac":                   rt.gcCPUFrac,
		"gc.pause_p99_us":               quantile(rt.pausesUs, 0.99),
		"bench.trace_overhead_frac":     ratio(trP50-refP50, refP50),
		"wall.ops_per_s":                float64(ref.acct.completed) / ref.elapsed.Seconds(),
		"wall.op_p50_us":                refP50,
		"wall.op_p99_us":                sliceQuantile(ref.wallMicros(), 0.99),
	}
	addAccounting(values, acct)
	return outcome{acct: acct, problems: problems, values: values}, nil
}

// passSpans lays one pass's figure runners end to end under a pass span.
func passSpans(id uint64, p passResult) spanLine {
	l := spanLine{ID: id, Spans: []span{{Name: "pass", Start: p.start, End: p.start + p.wall.Nanoseconds()}}}
	t := p.start
	for _, part := range []struct {
		name string
		d    time.Duration
	}{
		{"scenario.speech", p.speech}, {"scenario.latex", p.latex},
		{"scenario.pangloss", p.pangl}, {"scenario.overhead", p.overhead},
	} {
		l.Spans = append(l.Spans, span{Name: part.name, Parent: "pass", Start: t, End: t + part.d.Nanoseconds()})
		t += part.d.Nanoseconds()
	}
	return l
}
