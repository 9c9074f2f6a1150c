// Command perfbench is the repository benchmark. One invocation runs one
// named workload in its own process and prints, as its last line, one
// JSON object with the operations attempted and failed, whether every
// output check passed, and the metrics:
//
//	go run . --workload wire-proposal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the same workload runs with span decorators around every
// layer boundary and reports the per-layer metrics (perLayer) plus the
// tracing overhead. Lines before the last one carry the environment
// stamp, the workload's detail figures and one line per check. The exit
// code is non-zero when a check fails or the workload cannot run.
//
// The benchmark drives otacache only through its public functions, the
// way otacached, otaload and otasim do; see README.md for the
// workloads, the layer map and how the bounds in BENCHMARK.json were
// chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload and prints its report.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed: the trace, and so every input, is generated from it")
	seconds := fs.Float64("seconds", 10, "measured time per run, in seconds (whole rounds are run until it is reached)")
	traced := fs.Int("trace", 0, "1 runs the span-traced variant and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		photos:   w.photos,
		subSeeds: w.subSeeds,
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.print(stdout, stamp(*name, cfg)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runConfig is one run's settings: the seed, the measured time, whether
// spans are recorded, the trace scale (photos per synthetic trace) and
// the number of traces a cycle of rounds replays (see forRounds); the
// last two are the workload's unless a test shrinks them.
type runConfig struct {
	seed     uint64
	measure  time.Duration
	traced   bool
	photos   int
	subSeeds int
}

// workload is one named benchmark workload with its default trace
// scale and traces per cycle.
type workload struct {
	photos, subSeeds int
	run              func(runConfig) (*report, error)
}

var workloads = map[string]workload{
	"wire-proposal":   {photos: 30000, subSeeds: 10, run: runWire},
	"engine-original": {photos: 60000, subSeeds: 6, run: runEngine},
	"sim-proposal":    {photos: 8000, subSeeds: 48, run: runSim},
}

func workloadNames() string {
	return strings.Join(slices.Sorted(maps.Keys(workloads)), "|")
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// check is one verified property of the program's outputs.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is what one workload run produced.
type report struct {
	attempted, failed int64
	checks            []check
	// metrics are the result-line metrics of the run's mode, keyed by name:
	// every name in endToEnd (untraced) or perLayer (traced).
	metrics map[string]float64
	// detail holds workload-specific figures printed above the result
	// line only (latency tails, quality, device bytes).
	detail []metric
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// expect records one check. Checks repeated under one name (once per
// round) fold into one line that keeps the first failure's detail.
func (r *report) expect(name string, ok bool, format string, args ...any) {
	for i := range r.checks {
		c := &r.checks[i]
		if c.Name != name {
			continue
		}
		if c.OK && !ok {
			c.OK, c.Detail = false, fmt.Sprintf(format, args...)
		}
		return
	}
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// set records a result-line metric.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note records a detail figure.
func (r *report) note(name string, v float64, unit string) {
	r.detail = append(r.detail, metric{name, v, unit})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the stamp, the detail figures, the checks and the result
// line. Every metric of the run's mode must have been set.
func (r *report) print(w io.Writer, env envStamp) error {
	defs := endToEnd
	if env.Traced {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricResult{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricResult{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", envLine)
	for _, m := range r.detail {
		fmt.Fprintf(w, "detail %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
