package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"racefuzzer/internal/core"
	"racefuzzer/internal/deadlock"
	"racefuzzer/internal/event"
	"racefuzzer/internal/progen"
)

var generatedWorkload = workload{
	why: "progen programs drawn from the seed in four shapes, through the race, deadlock and atomicity pipelines at workers = nproc; " +
		"known defect: verdicts vary between processes (see the verdict digest)",
	iterate: generatedIter,
	probes: func(e *env) []probeProg {
		var out []probeProg
		for _, g := range genPrograms(e.seed, 4) {
			g := g
			out = append(out, probeProg{name: g.name, new: func() core.Program { return g.p.Body(nil) }})
		}
		return out
	},
}

// genShape is one stratum of the generated program set. Each shape spends a
// fixed budget of targets per bug kind: programs are drawn from the seed
// and their targets judged until the shape has judged exactly its budget of
// each kind (a kind's phase 1 runs only while that kind has budget left, and
// targets past the budget are skipped, as harness.RunUnit skips pairs past
// its trial budget). At most genPerProgram[k] targets of kind k are taken
// from one program, so each budget is spread over many programs. A fixed
// amount of work per shape and kind, drawn from many programs, keeps the
// per-run totals steady across seeds, where a fixed program count would not:
// targets per program are heavy-tailed, and progen rarely builds a
// deadlock. The shapes widen progen's defaults so that every kind carries
// work: many threads (wide enabled sets), deep lock nesting over several
// locks (deadlock cycles, atomic blocks), long two-thread scripts
// (lock-order inversions).
type genShape struct {
	name   string
	cfg    progen.Config
	budget [3]int // targets per kind, in kinds order: race, deadlock, atomicity
}

var genShapes = []genShape{
	{"default", progen.Config{}, [3]int{50, 2, 8}},
	{"wide", progen.Config{Threads: 6, Vars: 8, Locks: 2, MaxLockDepth: 1, OpsPerThread: 6}, [3]int{60, 0, 8}},
	{"nested", progen.Config{Threads: 3, Vars: 2, Locks: 3, MaxLockDepth: 3, OpsPerThread: 8}, [3]int{40, 6, 12}},
	{"inverted", progen.Config{Threads: 2, Vars: 3, Locks: 3, MaxLockDepth: 3, OpsPerThread: 20}, [3]int{30, 8, 10}},
}

// genPerProgram caps the targets of each kind judged per program.
var genPerProgram = [3]int{5, 2, 3}

// genMaxPrograms bounds the programs one shape may draw to fill its quota.
const genMaxPrograms = 500

// genProgram is one generated program of the workload.
type genProgram struct {
	name string
	p    *progen.Program
}

// genSeed derives the progen seed of program k of shape s.
func genSeed(seed int64, s, k int) int64 {
	return seed*1_000_003 + int64(s)*10_007 + int64(k)
}

// genProgramAt is program k of shape si.
func genProgramAt(seed int64, si, k int) genProgram {
	ps := genSeed(seed, si, k)
	return genProgram{name: genShapes[si].name + "/" + strconv.FormatInt(ps, 10), p: progen.Generate(ps, genShapes[si].cfg)}
}

// genPrograms returns the first perShape programs of every shape.
func genPrograms(seed int64, perShape int) []genProgram {
	var out []genProgram
	for si := range genShapes {
		for k := 0; k < perShape; k++ {
			out = append(out, genProgramAt(seed, si, k))
		}
	}
	return out
}

// genVerdicts is one program's reports, kept for the oracle.
type genVerdicts struct {
	g     genProgram
	o     core.Options
	races []core.PairReport
	dls   []core.DeadlockReport
	ats   []core.AtomicityReport
}

// generatedIter runs all three pipelines over generated programs, shape by
// shape until each shape's target budget is spent: phase 1 per kind, then
// one Confirm/Fuzz call per target, each timed.
func generatedIter(e *env, tr *tracer) (iterResult, error) {
	var it iterResult
	t0 := time.Now()
	root := tr.start(0, "bench", "generated", "")
	defer root.end()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var all []genVerdicts
	for si, sh := range genShapes {
		left := sh.budget
		for k := 0; left != [3]int{}; k++ {
			if k == genMaxPrograms {
				return it, fmt.Errorf("shape %s: %d programs leave %v of the %v target budget unspent", sh.name, k, left, sh.budget)
			}
			gt := time.Now()
			g := genProgramAt(e.seed, si, k)
			it.setup += time.Since(gt)
			all = append(all, runGenerated(e, g, &left, tr, root.id(), &it))
		}
	}
	it.wall = time.Since(start) - it.setup
	runtime.ReadMemStats(&m1)
	it.mallocs = m1.Mallocs - m0.Mallocs

	var races, dls, ats int
	for _, v := range all {
		races, dls, ats = races+len(v.races), dls+len(v.dls), ats+len(v.ats)
	}
	h := sha256.New()
	rt := time.Now()
	for _, v := range all {
		digestVerdicts(h, v)
		it.violations = append(it.violations, generatedViolations(v, tr, root.id(), &it)...)
	}
	it.regress = time.Since(rt)
	it.detail = fmt.Sprintf("programs %d targets race/deadlock/atomicity %d/%d/%d verdict-digest %s",
		len(all), races, dls, ats, hex.EncodeToString(h.Sum(nil))[:16])
	it.total = time.Since(t0)
	return it, nil
}

// runGenerated runs the three pipelines on one program, judging at most
// left[k] (and genPerProgram[k]) targets of kind k and charging each to
// left; a kind's phase 1 runs only while it has budget left.
func runGenerated(e *env, g genProgram, left *[3]int, tr *tracer, parent int64, it *iterResult) genVerdicts {
	body := g.p.Body(nil)
	v := genVerdicts{g: g, o: core.Options{Seed: e.seed, Workers: e.nproc, Label: g.name}}
	o := v.o
	const p1, p2 = 3, 100 // core.Options' defaults
	detect := func(k int, name string, f func() int) int {
		if left[k] == 0 {
			return 0
		}
		sp := tr.start(parent, "core", name, g.name)
		n := f()
		sp.end()
		it.phase1 += p1
		it.trials += p1
		n = min(n, left[k], genPerProgram[k])
		left[k] -= n
		return n
	}
	verdict := func(name string, i int, f func()) {
		vt := time.Now()
		sp := tr.start(parent, "core", name, fmt.Sprintf("%s/%s%d", g.name, name, i))
		f()
		sp.end()
		it.verdictsMs = append(it.verdictsMs, msSince(vt))
		it.trials += p2
	}

	var pairs []event.StmtPair
	n := detect(0, "DetectPotentialRaces", func() int { pairs = core.DetectPotentialRaces(body, o); return len(pairs) })
	for i, p := range pairs[:n] {
		verdict("FuzzPair", i, func() { v.races = append(v.races, core.FuzzPair(body, p, i, o)) })
	}
	var cycles []deadlock.Cycle
	n = detect(1, "DetectPotentialDeadlocks", func() int { cycles = core.DetectPotentialDeadlocks(body, o); return len(cycles) })
	for i, c := range cycles[:n] {
		verdict("ConfirmDeadlock", i, func() { v.dls = append(v.dls, core.ConfirmDeadlock(body, c, i, o)) })
	}
	var targets []core.AtomicityTarget
	n = detect(2, "DetectAtomicityTargets", func() int { targets = core.DetectAtomicityTargets(body, o); return len(targets) })
	for i, t := range targets[:n] {
		verdict("ConfirmAtomicity", i, func() { v.ats = append(v.ats, core.ConfirmAtomicity(body, t, i, o)) })
	}
	return v
}

// digestVerdicts folds one program's rendered verdicts, in report order,
// into the run's verdict digest.
func digestVerdicts(h hash.Hash, v genVerdicts) {
	fmt.Fprintln(h, v.g.name)
	for _, r := range v.races {
		fmt.Fprintln(h, r.String())
	}
	for _, r := range v.dls {
		fmt.Fprintln(h, r.String())
	}
	for _, r := range v.ats {
		fmt.Fprintln(h, r.String())
	}
}

// genLabel parses progen's statement labels: gen<seed>:t<thread>.<pos>.<op>.
var genLabel = regexp.MustCompile(`^gen-?\d+:t(\d+)\.\d+\.([a-z]+)$`)

// genRaceViolation checks a confirmed race pair against conditions that
// follow from how progen builds programs, independent of any detector: a
// race needs two memory accesses (never a counter increment, which runs
// under its own lock, nor a lock, unlock or nop), at least one of them a
// write, from two different threads. It returns "" when the pair passes.
func genRaceViolation(a, b string) string {
	ma, mb := genLabel.FindStringSubmatch(a), genLabel.FindStringSubmatch(b)
	if ma == nil || mb == nil {
		return fmt.Sprintf("race (%s, %s): label outside progen's scheme", a, b)
	}
	for _, m := range [][]string{ma, mb} {
		if m[2] != "read" && m[2] != "write" {
			return fmt.Sprintf("race (%s, %s): %s is not a memory access", a, b, m[0])
		}
	}
	if ma[2] == "read" && mb[2] == "read" {
		return fmt.Sprintf("race (%s, %s): two reads cannot race", a, b)
	}
	if ma[1] == mb[1] {
		return fmt.Sprintf("race (%s, %s): both sides in thread t%s", a, b, ma[1])
	}
	return ""
}

// generatedViolations runs the oracle over one program's verdicts and
// replays every confirmed finding from its witness seed (the workload's
// regress step): races through core.Replay, deadlocks through
// core.RecordDeadlockRun (a confirmed deadlock must deadlock again) and
// atomicity violations through core.RecordAtomicityRun; each replay is then
// recorded twice and must not diverge, as in harness.Regress.
func generatedViolations(v genVerdicts, tr *tracer, parent int64, it *iterResult) []string {
	var out []string
	body := v.g.p.Body(nil)
	bad := func(format string, args ...any) {
		out = append(out, v.g.name+": "+fmt.Sprintf(format, args...))
	}
	it.attempted += len(v.races) + len(v.dls) + len(v.ats)
	for i, r := range v.races {
		if !r.IsReal {
			continue
		}
		it.findings++
		it.attempted++
		if msg := genRaceViolation(r.Pair.A.Name(), r.Pair.B.Name()); msg != "" {
			bad("%s", msg)
		}
		sp := tr.start(parent, "core", "Replay", fmt.Sprintf("%s/FuzzPair%d", v.g.name, i))
		if !core.Replay(body, r.Pair, r.FirstRaceSeed, v.o).RaceCreated {
			bad("race %v: witness seed %d does not recreate it", r.Pair, r.FirstRaceSeed)
		}
		if d := core.VerifyRaceReplay(body, r.Pair, r.FirstRaceSeed, v.o); d != nil {
			bad("race %v: replay diverges: %v", r.Pair, d)
		}
		sp.end()
	}
	for i, d := range v.dls {
		if !d.IsReal {
			continue
		}
		it.findings++
		it.attempted++
		sp := tr.start(parent, "core", "RecordDeadlockRun", fmt.Sprintf("%s/ConfirmDeadlock%d", v.g.name, i))
		if res, _ := core.RecordDeadlockRun(body, d.Cycle.Locks, d.FirstSeed, v.o); res.Deadlock == nil {
			bad("deadlock %s/%s: witness seed %d does not deadlock again", d.Cycle.Locks[0], d.Cycle.Locks[1], d.FirstSeed)
		}
		if dv := core.VerifyDeadlockReplay(body, d.Cycle.Locks, d.FirstSeed, v.o); dv != nil {
			bad("deadlock %s/%s: replay diverges: %v", d.Cycle.Locks[0], d.Cycle.Locks[1], dv)
		}
		sp.end()
	}
	for i, a := range v.ats {
		if !a.IsReal {
			continue
		}
		it.findings++
		it.attempted++
		sp := tr.start(parent, "core", "RecordAtomicityRun", fmt.Sprintf("%s/ConfirmAtomicity%d", v.g.name, i))
		if _, viol, _ := core.RecordAtomicityRun(body, a.Target, a.FirstSeed, v.o); len(viol) == 0 {
			bad("atomicity %s..%s: witness seed %d does not violate again", a.Target.First, a.Target.Second, a.FirstSeed)
		}
		if d := core.VerifyAtomicityReplay(body, a.Target, a.FirstSeed, v.o); d != nil {
			bad("atomicity %s..%s: replay diverges: %v", a.Target.First, a.Target.Second, d)
		}
		sp.end()
	}
	return out
}
