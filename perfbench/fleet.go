package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/fleet"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

// fleetBudget and fleetRounds are the workload's campaign budget.
const (
	fleetBudget = 6000
	fleetRounds = 3
)

var fleetWorkload = workload{
	why: "an adaptive campaign over all registry models through a loopback coordinator and nproc workers, " +
		"into an empty on-disk corpus with witnesses and a run log, then harness.Regress over that corpus; " +
		"known defect: witness file names collide across rounds, so regress fails on some seeds",
	iterate: func(e *env, tr *tracer) (iterResult, error) { return fleetIter(e, tr, fleetBudget, nil) },
	probes:  func(*env) []probeProg { return registryProbes() },
	fleet:   true,
}

// fleetStats collects the fleet, harness, corpus and obs layer numbers of
// a traced campaign.
type fleetStats struct {
	mu        sync.Mutex
	rpcCount  map[string]int
	rpcMs     []float64
	wireBytes int64
	idle      time.Duration
	roundMs   []float64
	idleMs    []float64 // barrier idle per round
	execMs    float64
	requeues  int64
	dropped   int64
	newSigs   int64
	knownSigs int64
	saveMs    float64
	openMs    float64
	witnessB  int64
	regressMs float64
	regressed int
	records   int64
	emitNs    int64
	logBytes  int64
}

func newFleetStats() *fleetStats { return &fleetStats{rpcCount: make(map[string]int)} }

// unitKey identifies a campaign unit (round, target index), like the
// coordinator's unit IDs.
type unitKey [2]int

func unitID(u harness.RoundUnit) string { return fmt.Sprintf("r%d-t%d", u.Round, u.TargetIndex) }

// unitClock remembers when each unit's first execution started and how long
// executions took per round; it sits in the workers' Execute hook.
type unitClock struct {
	mu      sync.Mutex
	start   map[unitKey]time.Time
	byRound map[int]time.Duration
}

func (c *unitClock) execute(tr *tracer, parent int64) func(fleet.WorkUnit, fleet.CampaignInfo) (fleet.UnitResult, error) {
	return func(u fleet.WorkUnit, info fleet.CampaignInfo) (fleet.UnitResult, error) {
		t := time.Now()
		c.mu.Lock()
		if _, ok := c.start[unitKey{u.Round, u.TargetIndex}]; !ok {
			c.start[unitKey{u.Round, u.TargetIndex}] = t
		}
		c.mu.Unlock()
		sp := tr.start(parent, "fleet", "ExecuteUnit", u.ID)
		res, err := fleet.ExecuteUnit(u, info)
		sp.end()
		c.mu.Lock()
		c.byRound[u.Round] += time.Since(t)
		c.mu.Unlock()
		return res, err
	}
}

func (c *unitClock) startOf(u harness.RoundUnit) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start[unitKey{u.Round, u.TargetIndex}]
}

// roundClock wraps the coordinator's RoundExecutor. A unit's verdict time
// runs from the start of its execution on a worker to the driver's done
// callback: the coordinator calls begin only after the round barrier, so
// begin→done alone would time the merge and not the unit.
type roundClock struct {
	inner   harness.RoundExecutor
	units   *unitClock
	tr      *tracer
	parent  int64
	merge   *atomic.Int64 // span of the merge in progress, parent of obs spans
	it      *iterResult
	roundMs []float64
}

func (r *roundClock) ExecuteRound(units []harness.RoundUnit, begin func(i int), done func(i int, out harness.UnitOutcome)) error {
	rs := time.Now()
	name := "round"
	if len(units) > 0 {
		name = fmt.Sprintf("round%d", units[0].Round)
	}
	sp := r.tr.start(r.parent, "fleet", "ExecuteRound", name)
	var merge openSpan
	err := r.inner.ExecuteRound(units,
		func(i int) {
			merge = r.tr.start(sp.id(), "fleet", "merge", unitID(units[i]))
			r.merge.Store(merge.id())
			begin(i)
		},
		func(i int, out harness.UnitOutcome) {
			done(i, out)
			merge.end()
			r.merge.Store(sp.id())
			r.it.verdictsMs = append(r.it.verdictsMs, msSince(r.units.startOf(units[i])))
			r.it.phase1 += int64(phase1Trials(bench.MustByName(units[i].Target)))
		})
	sp.end()
	r.roundMs = append(r.roundMs, msSince(rs))
	return err
}

// timedSink wraps the run-log sink to count and time record emission.
type timedSink struct {
	inner   obs.Sink
	tr      *tracer
	parent  *atomic.Int64
	records atomic.Int64
	ns      atomic.Int64
}

func (s *timedSink) Emit(rec obs.RunRecord) {
	t := time.Now()
	sp := s.tr.start(s.parent.Load(), "obs", "Emit", rec.Label)
	s.inner.Emit(rec)
	sp.end()
	s.ns.Add(time.Since(t).Nanoseconds())
	s.records.Add(1)
}

// timingTransport times and counts a worker's control-plane calls.
type timingTransport struct {
	base   http.RoundTripper
	fs     *fleetStats
	tr     *tracer
	parent int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := path.Base(req.URL.Path)
	st := time.Now()
	sp := t.tr.start(t.parent, "fleet", "rpc:"+ep, "")
	resp, err := t.base.RoundTrip(req)
	sp.end()
	d := msSince(st)
	t.fs.mu.Lock()
	t.fs.rpcCount[ep]++
	t.fs.rpcMs = append(t.fs.rpcMs, d)
	if req.ContentLength > 0 {
		t.fs.wireBytes += req.ContentLength
	}
	t.fs.mu.Unlock()
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, fs: t.fs}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	fs *fleetStats
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.fs.mu.Lock()
	b.fs.wireBytes += int64(n)
	b.fs.mu.Unlock()
	return n, err
}

// sleep is the workers' Sleep hook in traced runs: a real, cancellable
// sleep whose duration is added to the fleet's idle time.
func (fs *fleetStats) sleep(ctx context.Context, d time.Duration) {
	st := time.Now()
	t := time.NewTimer(d)
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	t.Stop()
	fs.mu.Lock()
	fs.idle += time.Since(st)
	fs.mu.Unlock()
}

// fleetIter runs one fleet campaign end to end. fs, when non-nil, receives
// the layer numbers the traced run reports.
func fleetIter(e *env, tr *tracer, budget int, fs *fleetStats) (it iterResult, err error) {
	t0 := time.Now()
	root := tr.start(0, "bench", "fleet-campaign", "")
	defer root.end()
	dir, err := os.MkdirTemp(e.work, "campaign-")
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	corpusDir := filepath.Join(dir, "corpus")
	sp := tr.start(root.id(), "corpus", "Open", "")
	store, err := corpus.Open(corpusDir)
	sp.end()
	if err != nil {
		return it, err
	}
	logPath := filepath.Join(dir, "runs.jsonl")
	logFile, err := os.Create(logPath)
	if err != nil {
		return it, err
	}
	jsonl := obs.NewJSONLSink(logFile)
	defer jsonl.Close() // error paths only; the success path checks Close below
	merge := new(atomic.Int64)
	var sink obs.Sink = jsonl
	var ts *timedSink
	if fs != nil {
		ts = &timedSink{inner: jsonl, tr: tr, parent: merge}
		sink = ts
	}
	prov := obs.CollectProvenance("perfbench", "fleet-campaign", nil)
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Addr: "127.0.0.1:0", Store: store, Sink: sink, Provenance: prov,
	})
	sp = tr.start(root.id(), "fleet", "Start", "")
	err = coord.Start()
	sp.end()
	if err != nil {
		return it, err
	}
	base := "http://" + coord.Addr()
	names := bench.Names()
	coord.SetTargets(names)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if serr := coord.Shutdown(sctx); serr != nil && err == nil {
			err = fmt.Errorf("coordinator shutdown: %w", serr)
		}
	}()
	units := &unitClock{start: make(map[unitKey]time.Time), byRound: make(map[int]time.Duration)}
	werrs := make([]error, e.nproc)
	for w := 0; w < e.nproc; w++ {
		wsp := tr.start(root.id(), "fleet", "RunWorker", fmt.Sprintf("worker%d", w))
		wo := fleet.WorkerOptions{
			Coordinator: base,
			Name:        fmt.Sprintf("perfbench-worker-%d", w),
			Provenance:  prov,
			Execute:     units.execute(tr, wsp.id()),
		}
		if fs != nil {
			wo.Client = &http.Client{Timeout: 30 * time.Second,
				Transport: &timingTransport{base: http.DefaultTransport, fs: fs, tr: tr, parent: wsp.id()}}
			wo.Sleep = fs.sleep
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer wsp.end()
			werrs[w] = fleet.RunWorker(ctx, wo)
		}(w)
	}
	if err := waitWorkers(ctx, base, e.nproc); err != nil {
		return it, err
	}
	it.setup = time.Since(t0)

	rc := &roundClock{inner: coord, units: units, tr: tr, merge: merge, it: &it}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	csp := tr.start(root.id(), "harness", "RunCampaign", "")
	rc.parent = csp.id()
	rows, err := harness.RunCampaign(names, harness.CampaignOptions{
		Seed: e.seed, Budget: budget, Rounds: fleetRounds, Corpus: store, Executor: rc,
	})
	csp.end()
	it.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	it.mallocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		return it, err
	}
	for _, r := range rows {
		it.trials += int64(r.Trials)
	}
	it.trials += it.phase1
	it.findings = store.Len()

	coord.Finish()
	st, err := fetchStatus(ctx, base)
	if err != nil {
		return it, err
	}
	cancelWorkers := waitOrCancel(&wg, 10*time.Second, cancel)
	for w, werr := range werrs {
		if werr != nil && !(cancelWorkers && errors.Is(werr, context.Canceled)) {
			return it, fmt.Errorf("worker %d: %w", w, werr)
		}
	}
	it.attempted += st.UnitsDone
	for i := int64(0); i < st.Requeues; i++ {
		it.violations = append(it.violations, "fleet unit requeued")
	}
	for i := int64(0); i < st.ResultsDropped; i++ {
		it.violations = append(it.violations, "fleet result dropped")
	}

	sp = tr.start(root.id(), "corpus", "Save", "")
	saveStart := time.Now()
	err = store.Save()
	saveMs := msSince(saveStart)
	sp.end()
	if err != nil {
		return it, err
	}
	if err := jsonl.Close(); err != nil {
		return it, err
	}

	// Regress: what a user's CI pays to reload the corpus and replay every
	// stored witness.
	rt := time.Now()
	sp = tr.start(root.id(), "corpus", "Open", "reload")
	reloaded, err := corpus.Open(corpusDir)
	openMs := msSince(rt)
	sp.end()
	if err != nil {
		return it, err
	}
	sp = tr.start(root.id(), "harness", "Regress", "")
	results, _ := harness.Regress(reloaded)
	sp.end()
	it.regress = time.Since(rt)
	for _, r := range results {
		it.attempted++
		if !r.OK() {
			it.violations = append(it.violations, "regress: "+r.String())
		}
	}
	it.violations = append(it.violations, fleetViolations(reloaded)...)

	if fs != nil {
		newSigs, knownSigs := store.Counts()
		fs.mu.Lock()
		fs.roundMs = append(fs.roundMs, rc.roundMs...)
		units.mu.Lock()
		for r, ms := range rc.roundMs {
			busy := units.byRound[r+1]
			fs.execMs += float64(busy.Nanoseconds()) / 1e6
			fs.idleMs = append(fs.idleMs, ms*float64(e.nproc)-float64(busy.Nanoseconds())/1e6)
		}
		units.mu.Unlock()
		fs.requeues, fs.dropped = st.Requeues, st.ResultsDropped
		fs.newSigs, fs.knownSigs = newSigs, knownSigs
		fs.saveMs, fs.openMs = saveMs, openMs
		fs.witnessB = dirBytes(store.WitnessDir())
		fs.regressMs = float64(it.regress.Nanoseconds()) / 1e6
		fs.regressed = len(results)
		fs.records, fs.emitNs = ts.records.Load(), ts.ns.Load()
		fs.logBytes = fileBytes(logPath)
		fs.mu.Unlock()
	}
	it.total = time.Since(t0)
	return it, nil
}

// fleetViolations checks the campaign's corpus against the models' ground
// truth: no model may hold more signatures than its designed real races.
func fleetViolations(store *corpus.Store) []string {
	var out []string
	for _, b := range bench.All() {
		if n := store.BenchSignatures(b.Name); b.Expect.MaxReal >= 0 && n > b.Expect.MaxReal {
			out = append(out, fmt.Sprintf("%s: %d signatures, more than its %d real races", b.Name, n, b.Expect.MaxReal))
		}
	}
	return out
}

// waitWorkers polls /fleet/status until n workers have registered.
func waitWorkers(ctx context.Context, base string, n int) error {
	for {
		st, err := fetchStatus(ctx, base)
		if err != nil {
			return err
		}
		if st.WorkersTotal >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %d workers: %w", n, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// fetchStatus reads the coordinator's /fleet/status snapshot.
func fetchStatus(ctx context.Context, base string) (fleet.Status, error) {
	var st fleet.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/fleet/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, fmt.Errorf("fleet status: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("fleet status: %w", err)
	}
	return st, nil
}

// waitOrCancel waits for the workers to take their "done" and exit; past
// the grace period it cancels them and reports that it had to.
func waitOrCancel(wg *sync.WaitGroup, grace time.Duration, cancel context.CancelFunc) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return false
	case <-time.After(grace):
		cancel()
		<-done
		return true
	}
}

func fileBytes(p string) int64 {
	fi, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // a missing witness directory holds 0 bytes
	for _, e := range entries {
		n += fileBytes(filepath.Join(dir, e.Name()))
	}
	return n
}
