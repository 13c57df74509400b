package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/event"
)

func TestGeneratedOracleRejectsFalseRaces(t *testing.T) {
	ok := []struct{ a, b string }{
		{"gen5:t0.3.write", "gen5:t1.7.read"},
		{"gen-12:t2.0.write", "gen-12:t0.11.write"},
	}
	for _, c := range ok {
		if msg := genRaceViolation(c.a, c.b); msg != "" {
			t.Errorf("(%s, %s) rejected: %s", c.a, c.b, msg)
		}
	}
	bad := []struct{ a, b, why string }{
		{"gen5:t0.3.count", "gen5:t1.4.count", "counter increments run under their own lock"},
		{"gen5:t0.3.write", "gen5:t1.4.count", "one side is a counter increment"},
		{"gen5:t0.3.lock", "gen5:t1.4.write", "a lock is not a memory access"},
		{"gen5:t0.3.unlock", "gen5:t1.4.write", "an unlock is not a memory access"},
		{"gen5:t0.3.nop", "gen5:t1.4.write", "a nop is not a memory access"},
		{"gen5:t0.3.read", "gen5:t1.4.read", "two reads"},
		{"gen5:t1.3.write", "gen5:t1.9.read", "one thread"},
		{"figure1.go:12", "gen5:t1.4.write", "label outside progen's scheme"},
	}
	for _, c := range bad {
		if genRaceViolation(c.a, c.b) == "" {
			t.Errorf("(%s, %s) accepted, want rejected: %s", c.a, c.b, c.why)
		}
	}
}

// reportWith builds a one-pair pipeline report whose pair is confirmed or
// not.
func reportWith(real bool) *core.Report {
	p := event.MakeStmtPair(event.StmtFor("perfbench.test:a"), event.StmtFor("perfbench.test:b"))
	pr := core.PairReport{Pair: p, Trials: 100, FirstRaceTrial: -1, FirstExceptionTrial: -1}
	if real {
		pr.RaceRuns, pr.Probability, pr.IsReal, pr.FirstRaceTrial = 40, 0.4, true, 3
	}
	return &core.Report{Potential: []event.StmtPair{p}, Pairs: []core.PairReport{pr}}
}

func TestTable1OracleRejectsExtraRace(t *testing.T) {
	for _, name := range []string{"sor", "jspider"} {
		b := bench.MustByName(name)
		rep := reportWith(false)
		for len(rep.Potential) < b.Expect.MinPotential {
			rep.Potential = append(rep.Potential, event.MakeStmtPair(event.StmtFor(name+":x"), event.StmtFor(name+":y")))
		}
		if v := table1Violations(b, rep); len(v) != 0 {
			t.Errorf("%s without a confirmed race rejected: %v", name, v)
		}
		rep.Pairs[0] = reportWith(true).Pairs[0]
		if v := table1Violations(b, rep); len(v) == 0 {
			t.Errorf("%s with a planted real race accepted; its model has none", name)
		}
	}
}

func TestTable1OracleRejectsPairPhase1NeverReported(t *testing.T) {
	b := bench.MustByName("figure1")
	rep := reportWith(true)
	rep.Potential = []event.StmtPair{event.MakeStmtPair(event.StmtFor("perfbench.test:c"), event.StmtFor("perfbench.test:d"))}
	found := false
	for _, v := range table1Violations(b, rep) {
		found = found || strings.Contains(v, "never reported by phase 1")
	}
	if !found {
		t.Error("a confirmed pair outside phase 1's report was accepted")
	}
}

func TestFleetOracleRejectsSignatureBeyondMaxReal(t *testing.T) {
	store := corpus.NewStore()
	if v := fleetViolations(store); len(v) != 0 {
		t.Fatalf("empty corpus rejected: %v", v)
	}
	store.Report(corpus.Finding{Bench: "sor", Sig: corpus.MakeSignature("race", "sor.go:1", "sor.go:2", "")})
	if v := fleetViolations(store); len(v) != 1 {
		t.Errorf("a signature on sor, which has no real race, gave %d violations, want 1", len(v))
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n, p int
		ok   bool
	}{
		{100, 90, true}, {1000, 99, true}, {60, 83, true}, {48, 79, true}, {11, 9, true}, {10, 100, false}, {0, 100, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%d ok=%v, want p%d ok=%v", c.n, p, ok, c.p, c.ok)
		}
	}
	// The rule itself: at least ten samples beyond the chosen percentile,
	// fewer beyond the next one up.
	for n := 11; n <= 5000; n++ {
		p, _ := tailPercentile(n)
		if beyond := n - nearestRank(float64(p), n); beyond < tailMinBeyond {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, p, beyond)
		}
		if p < 99 && n-nearestRank(float64(p+1), n) >= tailMinBeyond {
			t.Fatalf("n=%d: p%d chosen but p%d also has ten samples beyond it", n, p, p+1)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 of 1..5 = %v, want 5", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	compareDefs(t, "end_to_end", e2e, endToEnd)
	compareDefs(t, "per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a command workload", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func compareDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	in := func(defs []metricDef) map[string]metricDef {
		m := make(map[string]metricDef)
		for _, d := range defs {
			m[d.Name] = d
		}
		return m
	}
	g, w := in(got), in(want)
	for name, d := range w {
		if g[name] != d {
			t.Errorf("%s: the command prints %+v, BENCHMARK.json has %+v", what, d, g[name])
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %q, which the command does not print", what, name)
		}
	}
}

// TestLayerMapCoversMetrics checks that layers.json says, for every
// per-layer metric, which end-to-end metric and workload it should move.
func TestLayerMapCoversMetrics(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
			Moves   []struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	mapped := make(map[string]bool)
	e2e := make(map[string]bool)
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, l := range lm.Layers {
		for _, m := range l.Metrics {
			mapped[m] = true
		}
		for _, mv := range l.Moves {
			if _, ok := workloads[mv.Workload]; !ok || !e2e[mv.Metric] {
				t.Errorf("layer %s: %s on %s is not an end-to-end metric and workload", l.Layer, mv.Metric, mv.Workload)
			}
		}
	}
	for _, d := range perLayer {
		if !mapped[d.Name] && !strings.HasPrefix(d.Name, "self_ms.") && !strings.HasPrefix(d.Name, "trace.") {
			t.Errorf("per-layer metric %s has no entry in layers.json", d.Name)
		}
	}
}

func TestCheckNamesRejectsDrift(t *testing.T) {
	m := make(map[string]metric)
	for _, d := range endToEnd {
		m[d.Name] = metric{1, d.Unit}
	}
	if err := checkNames(m, false); err != nil {
		t.Fatalf("complete metric set rejected: %v", err)
	}
	delete(m, "findings")
	m["finds"] = metric{1, "count"}
	if err := checkNames(m, false); err == nil {
		t.Error("renamed metric accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "harness", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "fleet", StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 1, Layer: "fleet", StartNs: 40, EndNs: 90}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "core", StartNs: 20, EndNs: 30},
	}
	self := selfTimes(spans)
	want := map[string]float64{"harness": 20e-6, "fleet": 90e-6, "core": 10e-6}
	for l, w := range want {
		if d := self[l] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v ms, want %v ms", l, self[l], w)
		}
	}
}
