// Command perfbench is the repository benchmark. It times calls into each
// module's public functions from outside — codegen, rules, dbt, learn,
// mine and rules/dist — checks every op against the ARM reference
// interpreter, and prints one JSON result line.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload ref-steady --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from spans and module counters, and writes the spans
// to .bench_build/trace/. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupReps is how many times the workload's set-up runs; setup_s is
	// the median.
	setupReps int
	// maxSlots, when positive, ends the measured loop after that many op
	// slots even if time remains (the smoke test's one-op runs).
	maxSlots int
	// tamper, when set, edits the reference results after set-up (the
	// smoke test's proof that the oracle check can fail).
	tamper func([]expect)
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*config, *tracer) (*outcome, error){
	"ref-steady": runRefSteady,
	"test-cold":  runTestCold,
	"learn-swap": runLearnSwap,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "ref-steady | test-cold | learn-swap")
	seed := fs.Int64("seed", 1, "sets the program rotation order and the guest seed arguments")
	seconds := fs.Float64("seconds", 30, "length of the measured loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad flags: --workload %q --seconds %v --trace %d\n", *workload, *seconds, *trace)
		return 2
	}
	// Load comes from this process alone, with at most nproc busy
	// goroutines on at most two CPUs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, setupReps: 3}
	res, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and records the run — seed, machine
// fingerprint, quartiles, spans — under .bench_build/.
func execute(cfg *config, stdout, log io.Writer) (*result, error) {
	tr := newTracer()
	out, err := workloads[cfg.workload](cfg, tr)
	if err != nil {
		return nil, err
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := out.values[m.name]
		if !ok && out.failed == 0 {
			return nil, fmt.Errorf("workload %s did not produce metric %s", cfg.workload, m.name)
		}
		// A metric with no successful op behind it reads 0; the result
		// is already marked incorrect.
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, e := range out.errs {
		fmt.Fprintln(log, "perfbench: failed op:", e)
	}
	header := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "fingerprint": machineFingerprint(),
	}
	record := map[string]any{"run": header, "quartiles": out.quartiles, "context": out.context, "result": res}
	data, err := json.Marshal(record)
	if err != nil {
		return nil, err
	}
	// The record also goes to stdout just before the result line, so a
	// caller that keeps stdout keeps the seed and fingerprint too.
	fmt.Fprintf(stdout, "%s\n", data)
	stem := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace))
	dir := ".bench_build"
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", stem+".json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := tr.write(filepath.Join(dir, "trace", stem+".json"), header); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outcome is what a workload driver measured.
type outcome struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
	quartiles         map[string]quartiles
	context           map[string]float64 // recorded beside the metrics
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, quartiles: map[string]quartiles{}, context: map[string]float64{}}
}

// fail records one failed op; the first few are kept for the log.
func (o *outcome) fail(what string, err error) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// sample sets a metric to the median of xs and keeps its quartiles.
func (o *outcome) sample(name string, xs []float64) {
	q := quartilesOf(xs)
	o.quartiles[name] = q
	o.values[name] = q.Median
}

type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
	N      int     `json:"n"`
}

func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartiles{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), P90: quantile(s, 0.9), N: len(s)}
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
