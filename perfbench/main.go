// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry points of the pipeline (core, harness,
// fleet), in a closed loop for a fixed number of seconds, checks every
// verdict against an oracle that does not come from the code under test,
// and prints the end-to-end metrics; with -trace 1 it instead records spans
// around every layer boundary and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workDir holds everything a run writes; the build directory is already
// ignored by git.
const workDir = ".bench_build"

// iterResult is one closed-loop iteration of a workload.
type iterResult struct {
	setup      time.Duration // per-iteration set-up before the first trial
	total      time.Duration // the whole iteration: set-up, work, checks
	wall       time.Duration // the measured work
	trials     int64
	phase1     int64 // phase-1 observations among trials
	findings   int
	verdictsMs []float64
	mallocs    uint64
	regress    time.Duration
	attempted  int
	violations []string
	detail     string // workload-specific end of the iteration report
}

// env is what a workload iteration needs besides the tracer.
type env struct {
	seed  int64
	nproc int
	work  string // per-run scratch directory inside workDir
}

// workload is one named benchmark workload.
type workload struct {
	why     string
	iterate func(e *env, tr *tracer) (iterResult, error)
	// probes returns the programs the traced run's layer probes execute.
	probes func(e *env) []probeProg
	// fleet reports whether the workload itself drives a fleet campaign,
	// so the traced iteration can supply the fleet-side layer metrics.
	fleet bool
}

var workloads = map[string]workload{
	"table1":         table1Workload,
	"generated":      generatedWorkload,
	"fleet-campaign": fleetWorkload,
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	procStart := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: table1, generated or fleet-campaign")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the closed loop measures")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	startNs := fs.Int64("start-ns", 0, "process start in Unix ns, stamped just before exec (0 = first line of main)")
	initProbe := fs.Bool("init-probe", false, "print the ns from --start-ns to main and exit (used by the set-up measurement)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *initProbe {
		fmt.Fprintln(stdout, time.Now().UnixNano()-*startNs)
		return nil
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *startNs > 0 {
		procStart = time.Unix(0, *startNs)
	}
	procInit, err := processInit(time.Since(procStart))
	if err != nil {
		return err
	}

	e := &env{seed: *seed, nproc: runtime.NumCPU(),
		work: filepath.Join(workDir, "perfbench-work", strconv.Itoa(os.Getpid()))}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	fmt.Fprintln(stdout, hostStamp())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d: %s\n", *name, *seed, *seconds, *trace, w.why)

	var res result
	if *trace == 1 {
		res, err = tracedRun(stdout, *name, w, e, time.Duration(*seconds)*time.Second)
	} else {
		res, err = untracedRun(stdout, w, e, procInit, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	if err := checkNames(res.Metrics, *trace == 1); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// untracedRun repeats the workload's iteration until the time is up and
// reports the median of each per-iteration metric.
func untracedRun(stdout io.Writer, w workload, e *env, procInit, seconds time.Duration) (result, error) {
	begin := time.Now()
	var its []iterResult
	for len(its) == 0 || time.Since(begin) < seconds {
		it, err := w.iterate(e, nil)
		if err != nil {
			return result{}, err
		}
		report(stdout, len(its), it)
		its = append(its, it)
	}
	var tps, spf, find, p50, tail, apt, setup, regress []float64
	attempted, failed := 0, 0
	for _, it := range its {
		tps = append(tps, float64(it.trials)/it.wall.Seconds())
		spf = append(spf, it.wall.Seconds()/float64(max(it.findings, 1)))
		find = append(find, float64(it.findings))
		p50 = append(p50, percentile(it.verdictsMs, 50))
		p, _ := tailPercentile(len(it.verdictsMs))
		tail = append(tail, percentile(it.verdictsMs, float64(p)))
		apt = append(apt, float64(it.mallocs)/float64(it.trials))
		setup = append(setup, (procInit + it.setup).Seconds())
		regress = append(regress, it.regress.Seconds())
		attempted += it.attempted
		failed += len(it.violations)
	}
	p, ok := tailPercentile(len(its[0].verdictsMs))
	note := ""
	if !ok {
		note = " (fewer than 11 samples: maximum)"
	}
	fmt.Fprintf(stdout, "verdict_ms_tail is p%d over %d verdicts per iteration%s, median of %d iterations\n",
		p, len(its[0].verdictsMs), note, len(its))
	m := map[string]metric{
		"trials_per_s":     {median(tps), "1/s"},
		"s_per_finding":    {median(spf), "s"},
		"findings":         {median(find), "count"},
		"verdict_ms_p50":   {median(p50), "ms"},
		"verdict_ms_tail":  {median(tail), "ms"},
		"allocs_per_trial": {median(apt), "count"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"setup_s":          {median(setup), "s"},
		"regress_s":        {median(regress), "s"},
		"pass_share":       {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// initProbes is how many extra processes processInit starts.
const initProbes = 5

// processInit measures process start-up, from exec to the first line of
// main (runtime and package initialisation, the registry included): this
// process's own start plus initProbes fresh processes of the same binary,
// each started and waited for in turn. It returns the median.
func processInit(own time.Duration) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	samples := []float64{float64(own)}
	for i := 0; i < initProbes; i++ {
		start := strconv.FormatInt(time.Now().UnixNano(), 10)
		out, err := exec.Command(exe, "--init-probe", "--start-ns", start).Output()
		if err != nil {
			return 0, fmt.Errorf("init probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("init probe: %w", err)
		}
		samples = append(samples, float64(ns))
	}
	return time.Duration(median(samples)), nil
}

// report prints one iteration's summary and its oracle violations.
func report(stdout io.Writer, i int, it iterResult) {
	fmt.Fprintf(stdout, "iteration %d: setup %.4fs work %.3fs trials %d findings %d verdicts %d regress %.3fs checked %d failed %d",
		i, it.setup.Seconds(), it.wall.Seconds(), it.trials, it.findings, len(it.verdictsMs),
		it.regress.Seconds(), it.attempted, len(it.violations))
	if it.detail != "" {
		fmt.Fprint(stdout, " ", it.detail)
	}
	fmt.Fprintln(stdout)
	for _, v := range it.violations {
		fmt.Fprintln(stdout, "  ORACLE VIOLATION:", v)
	}
}

// checkNames fails the run when the printed metric names drift from the
// declared lists (and so from BENCHMARK.json, which a test compares).
func checkNames(m map[string]metric, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(m) != len(defs) {
		return fmt.Errorf("printed %d metrics, declared %d", len(m), len(defs))
	}
	var bad []string
	for _, d := range defs {
		if got, ok := m[d.Name]; !ok || got.Unit != d.Unit {
			bad = append(bad, d.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics missing or with the wrong unit: %s", strings.Join(bad, ", "))
	}
	return nil
}
