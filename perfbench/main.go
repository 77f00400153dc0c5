// Command perfbench is the repository's end-to-end benchmark. It drives the
// public APIs of internal/sim, internal/core and internal/httpapi on three
// fixed-work, deterministic workloads, checks every run's outputs, and prints
// a report followed by one JSON result line. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload branch-rc80 --seed 1 --seconds 24 --trace 0
//	bash perfbench/run.sh --workload daemon-rc256 --seed 1 --seconds 24 --trace 1
//	bash perfbench/run.sh --selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload: branch-rc80 | shard4-rc256 | daemon-rc256")
		seed      = flag.Int64("seed", 1, "run seed, echoed in the report; the inputs are pinned (README.md, \"Seeds\")")
		runSecs   = flag.Int("seconds", 24, "nominal measuring time; fixes the repetition count, never stops work early")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run and per-layer metrics")
		traceSeed = flag.Int64("trace-seed", 0, "trace seed (0 = the workload's canonical seed; see README.md for holdout seeds)")
		selftest  = flag.Bool("selftest", false, "run the determinism and guard self-test instead of measuring")
	)
	flag.Parse()
	// Solver workers never exceed 2; neither does the runtime's parallelism.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if *selftest {
		if !runSelftest() {
			os.Exit(1)
		}
		return
	}
	sp, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	if *runSecs < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	o := options{traceSeed: *traceSeed}
	var r *result
	if *traced == 1 {
		r, err = traceRun(sp, o, *seed)
	} else {
		r, err = measure(sp, o, *seed, sp.reps(*runSecs))
	}
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// value is one metric of the JSON result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's report and its JSON result line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	lines []string // the report printed ahead of the result line
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]value{}} }

// add records a metric for the result line and the report; note explains
// its sample count or base.
func (r *result) add(name, unit string, v float64, note string) {
	r.Metrics[name] = value{Value: v, Unit: unit}
	r.say(metricFormat, name, v, unit, note)
}

// metricFormat prints one metric of the report: name, value, unit, note.
const metricFormat = "  %-34s %14.6g %-6s %s"

func (r *result) say(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check folds one run's verdict into the result.
func (r *result) check(label string, o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if !o.ok() {
		r.Correct = false
		if o.failed == 0 {
			r.Failed++ // a run-level failure with no per-op count
		}
	}
	for _, e := range o.errs {
		r.say("FAIL %s: %s", label, e)
	}
}

// agree reports whether two runs of one trace gave identical per-job
// outcomes, quality metrics and counts.
func agree(a, b *outcome) bool {
	return a.countDigest == b.countDigest && a.slo == b.slo && a.beLatency == b.beLatency && a.util == b.util
}

// same requires two runs of one trace to agree.
func (r *result) same(label string, a, b *outcome) {
	if !agree(a, b) {
		r.Correct = false
		r.Failed++
		r.say("FAIL %s: outcomes or counts differ between two runs of one trace", label)
	}
}

func (r *result) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(fmt.Errorf("encode result: %w", err))
	}
	fmt.Fprintln(f, string(line))
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func seconds(d time.Duration) float64 { return d.Seconds() }
