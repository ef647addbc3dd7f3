// Command perfbench is Spectra's benchmark of record. It drives the stack
// from outside, through public calls, on one of three workloads:
//
//   - live-small: a closed loop of 2 callers against one in-process server
//     over the real mux transport, 64 B requests and responses, zero server
//     work — Spectra's per-operation overhead floor.
//   - live-speech: an open loop at 150 ops/s against two servers, with
//     Janus-shaped utterances (8–128 KB requests, 40 B responses) drawn
//     from the seed — wire bytes, decision-cache misses and queueing.
//   - sim-paper: repeated passes of the paper's evaluation (Figures 3–10)
//     on the virtual-time testbeds — the decision layers.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload live-speech --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (and prints the
// wall-clock view, which a shared host makes too noisy to gate); with
// --trace 1 it runs the separate traced pass that yields the per-layer
// ledger. Metric names and units come from BENCHMARK.json at the checkout
// root; README.md in this directory maps each per-layer metric to the
// end-to-end metric and workload it should move. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check makes "correct" false and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// spanDir is where traced runs write their in-memory spans at exit,
// relative to the checkout root.
const spanDir = ".bench_build/spans"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// accounting counts what became of every attempted unit of work: an
// operation on the live workloads, an evaluation pass on sim-paper.
type accounting struct {
	attempted, completed   int64
	errored, shed, expired int64
	failedOver, degraded   int64
}

// printWall reports the wall-clock view of a normal run on a comment line:
// throughput and latency, which on a shared host move with the time the
// hypervisor steals and so are not gated (see README.md).
func printWall(opsPerS, p50us, p99us float64) {
	fmt.Printf("# wall-clock ops_per_s=%.2f op_p50_us=%.1f op_p99_us=%.1f\n", opsPerS, p50us, p99us)
}

func (a accounting) failed() int64 { return a.errored + a.shed + a.expired }

func (a *accounting) add(b accounting) {
	a.attempted += b.attempted
	a.completed += b.completed
	a.errored += b.errored
	a.shed += b.shed
	a.expired += b.expired
	a.failedOver += b.failedOver
	a.degraded += b.degraded
}

// outcome is what one workload run hands back: its accounting, the
// correctness mismatches it found, and metric values by name.
type outcome struct {
	acct     accounting
	problems []string
	values   map[string]float64
}

type options struct {
	seed   int64
	window time.Duration
	trace  bool
}

// benchSpec is the part of BENCHMARK.json the program needs: which metrics
// each mode must report, and their units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: live-small, live-speech or sim-paper")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	opts := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	}
	if err := run(*workload, opts); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, opts options) error {
	if opts.window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read metric spec: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}

	var out outcome
	switch workload {
	case liveSmall.name:
		out, err = runLive(&liveSmall, opts)
	case liveSpeech.name:
		out, err = runLive(&liveSpeech, opts)
	case "sim-paper":
		out, err = runSim(opts)
	default:
		return fmt.Errorf("unknown workload %q (want live-small, live-speech or sim-paper)", workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if out.acct.attempted < 1 {
		return fmt.Errorf("%s: no work attempted", workload)
	}

	want := spec.EndToEnd
	if opts.trace {
		want = spec.PerLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.acct.attempted,
		Failed:    out.acct.failed(),
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok && opts.trace {
			// A layer this workload's path does not cross reads 0.
			v, ok = 0, true
		}
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		slices.Sort(extra)
		return fmt.Errorf("%s: metrics %v are not declared in BENCHMARK.json", workload, extra)
	}

	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	a := out.acct
	fmt.Printf("# %s seed=%d window=%s trace=%v\n", workload, opts.seed, opts.window, opts.trace)
	fmt.Printf("# accounting attempted=%d completed=%d errored=%d shed=%d deadline_expired=%d failed_over=%d degraded=%d\n",
		a.attempted, a.completed, a.errored, a.shed, a.expired, a.failedOver, a.degraded)
	for _, m := range want {
		fmt.Printf("%-34s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness checks failed", len(out.problems))
	}
	return nil
}
