package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"racefuzzer/internal/core"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/progen"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// fleetProbeBudget is the campaign budget of the fleet probe that supplies
// the harness, fleet, corpus and obs numbers on workloads that do not run a
// fleet campaign themselves.
const fleetProbeBudget = 600

// tracedRun alternates untraced and traced iterations of the workload until
// the time is up (the median difference is the tracing overhead), then runs
// the layer probes with spans on, writes the spans and prints the per-layer
// metrics.
func tracedRun(stdout io.Writer, name string, w workload, e *env, seconds time.Duration) (result, error) {
	var res result
	tally := func(it iterResult) {
		res.Attempted += it.attempted
		res.Failed += len(it.violations)
	}
	tr := newTracer()
	var t iterResult
	var fs *fleetStats
	var overheads, untraced []float64
	for begin := time.Now(); len(overheads) == 0 || time.Since(begin) < seconds; {
		u, err := w.iterate(e, nil)
		if err != nil {
			return res, err
		}
		report(stdout, 2*len(overheads), u)
		tally(u)
		fs = newFleetStats()
		if w.fleet {
			t, err = fleetIter(e, tr, fleetBudget, fs)
		} else {
			t, err = w.iterate(e, tr)
		}
		if err != nil {
			return res, err
		}
		report(stdout, 2*len(overheads)+1, t)
		tally(t)
		overheads = append(overheads, float64((t.total-u.total).Nanoseconds())/1e6)
		untraced = append(untraced, float64(u.total.Nanoseconds())/1e6)
	}

	m := make(map[string]metric)
	progs := w.probes(e)
	eventProbe(tr, progs, e.seed, m)
	runProbe(tr, progs, e.seed, t, m)
	if err := kindsProbe(tr, e, m); err != nil {
		return res, err
	}
	if !w.fleet {
		fs = newFleetStats()
		p, err := fleetIter(e, tr, fleetProbeBudget, fs)
		if err != nil {
			return res, err
		}
		fmt.Fprint(stdout, "fleet probe ")
		report(stdout, 0, p)
		tally(p)
	}
	fleetMetrics(fs, m)

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, l := range layers {
		m["self_ms."+l] = metric{self[l], "ms"}
	}
	overhead := median(overheads)
	m["trace.overhead_ms"] = metric{overhead, "ms"}
	m["trace.overhead_share"] = metric{overhead / median(untraced), "ratio"}
	m["trace.spans"] = metric{float64(len(spans)), "count"}

	path := filepath.Join(workDir, "perfbench-spans", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := tr.write(path); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
	fmt.Fprintf(stdout, "tracing overhead: median of %d (traced - untraced iteration) = %.1f ms on %.1f ms\n",
		len(overheads), overhead, median(untraced))
	names := append([]string{"bench"}, layers...)
	for _, l := range names {
		fmt.Fprintf(stdout, "self time %-8s %10.1f ms\n", l, self[l])
	}
	res.Correct = res.Failed == 0
	res.Metrics = m
	return res, nil
}

// eventProbe times statement identity at a warmed call site, both ways a
// program can label an access, and scales it by the instrumented accesses
// per trial of the workload's programs.
func eventProbe(tr *tracer, progs []probeProg, seed int64, m map[string]metric) {
	const calls = 200_000
	root := tr.start(0, "bench", "probe:event", "")
	defer root.end()
	var keep event.Stmt
	sp := tr.start(root.id(), "event", "CallerStmt", "")
	keep += event.CallerStmt(0)
	st := time.Now()
	for i := 0; i < calls; i++ {
		keep += event.CallerStmt(0)
	}
	callerNs := float64(time.Since(st).Nanoseconds()) / calls
	sp.end()
	sp = tr.start(root.id(), "event", "StmtFor", "")
	st = time.Now()
	for i := 0; i < calls; i++ {
		keep += event.StmtFor("perfbench.probe")
	}
	stmtForNs := float64(time.Since(st).Nanoseconds()) / calls
	sp.end()
	_ = keep

	var events atomic.Int64
	var runs int64
	count := sched.ObserverFunc(func(event.Event) { events.Add(1) })
	for _, p := range progs {
		for r := int64(0); r < 3; r++ {
			sp := tr.start(root.id(), "sched", "Run", p.name)
			sched.Run(p.new(), sched.Config{Seed: seed + r, Policy: sched.NewRandomPolicy(),
				MaxSteps: p.maxSteps, Observers: []sched.Observer{count}})
			sp.end()
			runs++
		}
	}
	acc := float64(events.Load()) / float64(runs)
	m["event.callerstmt_ns"] = metric{callerNs * acc, "ns"}
	m["event.stmtfor_ns"] = metric{stmtForNs * acc, "ns"}
	m["event.accesses_per_trial"] = metric{acc, "count"}
}

// runProbe takes the paper's three runtime columns on the workload's
// programs (random scheduler alone, with the hybrid detector, under
// RaceFuzzerPolicy) and one profiled FuzzPair per program, and derives the
// sched, core-policy and hybrid numbers from their differences.
func runProbe(tr *tracer, progs []probeProg, seed int64, traced iterResult, m map[string]metric) {
	root := tr.start(0, "bench", "probe:run", "")
	defer root.end()
	type col struct {
		ns, steps, mem int64
	}
	var c3, c4, c5 col
	var runs int64
	prof := schedprof.NewCollector()
	cm := obs.NewCampaignMetrics()
	var decisions, postpones, raceRuns, fuzzTrials int64
	for _, p := range progs {
		o := core.Options{Seed: seed, MaxSteps: p.maxSteps, Label: p.name}
		sp := tr.start(root.id(), "core", "DetectPotentialRaces", p.name)
		pairs := core.DetectPotentialRaces(p.new(), o)
		sp.end()
		for r := int64(0); r < 5; r++ {
			cfg := sched.Config{Seed: seed + 100 + r, Policy: sched.NewRandomPolicy(), MaxSteps: p.maxSteps}
			sp := tr.start(root.id(), "sched", "Run", p.name)
			st := time.Now()
			res := sched.Run(p.new(), cfg)
			c3.ns += time.Since(st).Nanoseconds()
			sp.end()
			c3.steps += int64(res.Steps)

			det := hybrid.New()
			cfg.Policy, cfg.Observers = sched.NewRandomPolicy(), []sched.Observer{det}
			sp = tr.start(root.id(), "hybrid", "Run", p.name)
			st = time.Now()
			res = sched.Run(p.new(), cfg)
			c4.ns += time.Since(st).Nanoseconds()
			sp.end()
			c4.steps += int64(res.Steps)
			c4.mem += int64(det.MemEvents())
			runs++

			if len(pairs) > 0 {
				cfg.Policy, cfg.Observers = core.NewRaceFuzzerPolicy(pairs[0]), nil
				sp = tr.start(root.id(), "core", "RaceFuzzerPolicy", p.name)
				st = time.Now()
				res = sched.Run(p.new(), cfg)
				c5.ns += time.Since(st).Nanoseconds()
				sp.end()
				c5.steps += int64(res.Steps)
			}
		}
		if len(pairs) > 0 {
			po := o
			po.Phase2Trials, po.Prof, po.Metrics = 20, prof, cm
			sp := tr.start(root.id(), "core", "FuzzPair", p.name+"/pair0")
			rep := core.FuzzPair(p.new(), pairs[0], 0, po)
			sp.end()
			decisions += rep.TotalDecisions
			postpones += rep.TotalPostpones
			raceRuns += int64(rep.RaceRuns)
			fuzzTrials += int64(rep.Trials)
		}
	}
	per := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	m["sched.ns_per_step"] = metric{per(c3.ns, c3.steps), "ns"}
	m["sched.steps_per_trial"] = metric{per(c3.steps, runs), "count"}
	m["core.policy_ns_per_step"] = metric{per(c5.ns, c5.steps) - per(c3.ns, c3.steps), "ns"}
	m["core.decisions_per_trial"] = metric{per(decisions, fuzzTrials), "count"}
	m["core.postpones_per_trial"] = metric{per(postpones, fuzzTrials), "count"}
	m["core.hit_rate"] = metric{per(raceRuns, fuzzTrials), "ratio"}
	nsPerMem := per(c4.ns-c3.ns, c4.mem)
	memPerTrial := per(c4.mem, runs)
	m["hybrid.ns_per_mem"] = metric{nsPerMem, "ns"}
	m["hybrid.mem_events"] = metric{memPerTrial, "count"}
	m["hybrid.share"] = metric{nsPerMem * memPerTrial * float64(traced.phase1) / float64(traced.wall.Nanoseconds()), "ratio"}

	s := prof.Summary()
	var waitP50, svcP50 float64
	var grants int64
	for _, op := range s.Ops {
		waitP50 += op.Wait.P50 * float64(op.Count)
		svcP50 += op.Service.P50 * float64(op.Count)
		grants += op.Count
	}
	// Grant-weighted over op kinds; the collector keeps one histogram per
	// kind.
	m["sched.grant_wait_us_p50"] = metric{waitP50 / float64(max(grants, 1)) / 1e3, "us"}
	m["sched.grant_service_us_p50"] = metric{svcP50 / float64(max(grants, 1)) / 1e3, "us"}
	m["sched.empty_rounds"] = metric{per(s.EmptyRounds, s.Trials), "1/trial"}
	m["sched.enabled_mean"] = metric{s.EnabledMean, "count"}
}

// kindsPrograms picks generated programs for the per-kind pipeline probe:
// deep-nesting shapes, scanned from the seed until the set holds at least
// four programs and two potential deadlocks (progen rarely builds one).
func kindsPrograms(seed int64) []genProgram {
	var out []genProgram
	cycles := 0
	for k := 0; k < 200 && (len(out) < 4 || cycles < 2); k++ {
		si := len(genShapes) - 1 - k%2
		ps := genSeed(seed, 100+si, k)
		g := genProgram{name: fmt.Sprintf("%s/%d", genShapes[si].name, ps), p: progen.Generate(ps, genShapes[si].cfg)}
		n := len(core.DetectPotentialDeadlocks(g.p.Body(nil), core.Options{Seed: seed}))
		if len(out) < 4 || n > 0 {
			out = append(out, g)
			cycles += n
		}
	}
	return out
}

// kindsProbe times phase 1 and phase 2 of each bug kind's pipeline at
// workers = nproc, and the executor's utilisation: time spent inside
// program bodies over wall time times workers.
func kindsProbe(tr *tracer, e *env, m map[string]metric) error {
	root := tr.start(0, "bench", "probe:kinds", "")
	defer root.end()
	var busy atomic.Int64
	var wall time.Duration
	progs := kindsPrograms(e.seed)
	for _, kind := range kinds {
		var p1, p2 time.Duration
		var progsN, targets, confirmed int
		for _, g := range progs {
			inner := g.p.Body(nil)
			body := func(t *sched.Thread) {
				st := time.Now()
				inner(t)
				busy.Add(time.Since(st).Nanoseconds())
			}
			o := core.Options{Seed: e.seed, Workers: e.nproc, Label: g.name}
			progsN++
			st := time.Now()
			var confirm []func() bool
			sp := tr.start(root.id(), "core", "Detect:"+kind, g.name)
			switch kind {
			case "race":
				for i, p := range core.DetectPotentialRaces(body, o) {
					confirm = append(confirm, func() bool { return core.FuzzPair(body, p, i, o).IsReal })
				}
			case "deadlock":
				for i, c := range core.DetectPotentialDeadlocks(body, o) {
					confirm = append(confirm, func() bool { return core.ConfirmDeadlock(body, c, i, o).IsReal })
				}
			case "atomicity":
				for i, t := range core.DetectAtomicityTargets(body, o) {
					confirm = append(confirm, func() bool { return core.ConfirmAtomicity(body, t, i, o).IsReal })
				}
			}
			sp.end()
			p1 += time.Since(st)
			st = time.Now()
			for i, f := range confirm {
				sp := tr.start(root.id(), "core", "Confirm:"+kind, fmt.Sprintf("%s/%d", g.name, i))
				if f() {
					confirmed++
				}
				sp.end()
				targets++
			}
			p2 += time.Since(st)
		}
		wall += p1 + p2
		m["core."+kind+".phase1_ms"] = metric{float64(p1.Nanoseconds()) / 1e6 / float64(max(progsN, 1)), "ms"}
		m["core."+kind+".phase2_ms"] = metric{float64(p2.Nanoseconds()) / 1e6 / float64(max(targets, 1)), "ms"}
		m["core."+kind+".confirm_ratio"] = metric{float64(confirmed) / float64(max(targets, 1)), "ratio"}
		if targets == 0 {
			return fmt.Errorf("kinds probe: no %s targets in its program set", kind)
		}
	}
	m["core.executor_util"] = metric{float64(busy.Load()) / (float64(wall.Nanoseconds()) * float64(e.nproc)), "ratio"}
	return nil
}

// fleetMetrics turns a traced campaign's layer numbers into metrics.
func fleetMetrics(fs *fleetStats, m map[string]metric) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	m["harness.round_ms"] = metric{mean(fs.roundMs), "ms"}
	m["harness.barrier_idle_ms"] = metric{mean(fs.idleMs), "ms"}
	for _, ep := range rpcEndpoints {
		m["fleet.rpc_count."+ep] = metric{float64(fs.rpcCount[ep]), "count"}
	}
	m["fleet.rpc_ms_p50"] = metric{percentile(fs.rpcMs, 50), "ms"}
	m["fleet.wire_bytes"] = metric{float64(fs.wireBytes), "bytes"}
	m["fleet.idle_wait_ms"] = metric{float64(fs.idle.Nanoseconds()) / 1e6, "ms"}
	m["fleet.exec_ms"] = metric{fs.execMs, "ms"}
	m["fleet.requeues"] = metric{float64(fs.requeues), "count"}
	m["fleet.dropped"] = metric{float64(fs.dropped), "count"}
	m["corpus.new"] = metric{float64(fs.newSigs), "count"}
	m["corpus.known"] = metric{float64(fs.knownSigs), "count"}
	m["corpus.dedup_rate"] = metric{float64(fs.knownSigs) / float64(max(fs.newSigs+fs.knownSigs, 1)), "ratio"}
	m["corpus.save_ms"] = metric{fs.saveMs, "ms"}
	m["corpus.open_ms"] = metric{fs.openMs, "ms"}
	m["corpus.witness_bytes"] = metric{float64(fs.witnessB), "bytes"}
	m["regress.ms_per_finding"] = metric{fs.regressMs / float64(max(fs.regressed, 1)), "ms"}
	m["obs.records"] = metric{float64(fs.records), "count"}
	m["obs.emit_ns"] = metric{float64(fs.emitNs) / float64(max(fs.records, 1)), "ns"}
	m["obs.log_bytes"] = metric{float64(fs.logBytes), "bytes"}
}
