package main

import (
	"fmt"
	"runtime"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/event"
	"racefuzzer/internal/harness"
)

// table1Trials is the paper's phase-2 budget per potential pair.
const table1Trials = 100

var table1Workload = workload{
	why:     "the paper's Table 1: the two-phase race pipeline on all 16 registry models, 100 trials per pair, sequential executor",
	iterate: table1Iter,
	probes:  func(*env) []probeProg { return registryProbes() },
}

// probeProg is one program the layer probes run.
type probeProg struct {
	name     string
	new      func() core.Program
	maxSteps int
}

func registryProbes() []probeProg {
	var out []probeProg
	for _, b := range bench.All() {
		b := b
		out = append(out, probeProg{name: b.Name, maxSteps: b.MaxSteps,
			new: func() core.Program { return b.New() }})
	}
	return out
}

// phase1Trials is the phase-1 observation count a registry model runs with.
func phase1Trials(b bench.Benchmark) int {
	if b.Phase1Trials > 0 {
		return b.Phase1Trials
	}
	return 3 // core.Options' default
}

// table1Model is one model's outcome within an iteration.
type table1Model struct {
	b   bench.Benchmark
	o   core.Options
	rep core.Report
}

// table1Iter runs phase 1 and then FuzzPair for every reported pair of
// every registry model, timing each pair's verdict. Its regress step replays
// every confirmed race from its witness seed, twice recorded, as
// harness.Regress does for a corpus: the race must recur and the two
// recordings must match.
func table1Iter(e *env, tr *tracer) (iterResult, error) {
	var it iterResult
	t0 := time.Now()
	root := tr.start(0, "bench", "table1", "")
	defer root.end()
	models := bench.All()
	it.setup = time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var out []table1Model
	for _, b := range models {
		o := core.Options{Seed: e.seed, Phase1Trials: b.Phase1Trials, Phase2Trials: table1Trials,
			MaxSteps: b.MaxSteps, Label: b.Name}
		sp := tr.start(root.id(), "core", "DetectPotentialRaces", b.Name)
		pairs := core.DetectPotentialRaces(b.New(), o)
		sp.end()
		it.phase1 += int64(phase1Trials(b))
		rep := core.Report{Potential: pairs}
		for i, p := range pairs {
			vt := time.Now()
			sp := tr.start(root.id(), "core", "FuzzPair", fmt.Sprintf("%s/pair%d", b.Name, i))
			rep.Pairs = append(rep.Pairs, core.FuzzPair(b.New(), p, i, o))
			sp.end()
			it.verdictsMs = append(it.verdictsMs, msSince(vt))
			it.trials += table1Trials
		}
		out = append(out, table1Model{b: b, o: o, rep: rep})
	}
	it.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	it.mallocs = m1.Mallocs - m0.Mallocs
	it.trials += it.phase1

	rt := time.Now()
	for _, m := range out {
		it.findings += m.rep.RealCount()
		it.attempted += len(m.rep.Potential) + 1
		sp := tr.start(root.id(), "harness", "Verify", m.b.Name)
		for _, v := range table1Violations(m.b, &m.rep) {
			it.violations = append(it.violations, m.b.Name+": "+v)
		}
		sp.end()
		for i, p := range m.rep.Pairs {
			if !p.IsReal {
				continue
			}
			it.attempted++
			sp := tr.start(root.id(), "core", "Replay", fmt.Sprintf("%s/pair%d", m.b.Name, i))
			if !core.Replay(m.b.New(), p.Pair, p.FirstRaceSeed, m.o).RaceCreated {
				it.violations = append(it.violations, fmt.Sprintf("%s: %v: witness seed %d does not recreate the race",
					m.b.Name, p.Pair, p.FirstRaceSeed))
			}
			if d := core.VerifyRaceReplay(m.b.New(), p.Pair, p.FirstRaceSeed, m.o); d != nil {
				it.violations = append(it.violations, fmt.Sprintf("%s: %v: replay diverges: %v", m.b.Name, p.Pair, d))
			}
			sp.end()
		}
	}
	it.regress = time.Since(rt)
	it.total = time.Since(t0)
	return it, nil
}

// table1Violations checks one model's pipeline outcome against the model's
// hand-written ground truth (bench.Expect, via harness.Verify), plus the
// paper's structural claim that a confirmed pair was reported by phase 1.
func table1Violations(b bench.Benchmark, rep *core.Report) []string {
	row := harness.Row{
		Name:           b.Name,
		Potential:      len(rep.Potential),
		Real:           rep.RealCount(),
		ExceptionPairs: rep.ExceptionPairCount(),
		Probability:    rep.MeanProbability(),
	}
	out := harness.Verify(b, row)
	reported := make(map[event.StmtPair]bool, len(rep.Potential))
	for _, p := range rep.Potential {
		reported[p] = true
	}
	for _, p := range rep.RealPairs() {
		if !reported[p.Pair] {
			out = append(out, fmt.Sprintf("confirmed pair %v was never reported by phase 1", p.Pair))
		}
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
