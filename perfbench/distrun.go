package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/topo"
)

const distSession = "perfbench"

var distWorkers = []string{"w0", "w1"}

// quietTracedEpochs is how many steady epochs the traced quiet-dist-10k
// run's untraced pass runs: enough to see a few fault re-plans.
const quietTracedEpochs = 10

// distRun is one coordinator run with 2 workers, checking every
// committed epoch.
type distRun struct {
	co   *dist.Coordinator
	rep  *report
	rows int
	// commits[i] is when epoch i's commit hook returned; start is when Run
	// began.
	start   time.Time
	commits []time.Time
	// onCommit, when set, sees each commit's epoch and hook entry time.
	onCommit func(epoch int, at time.Time)
}

// newDistRun sets a run up: the coordinator builds its runtime and every
// worker opens the session (building its own copy of the field), so the
// opens inside Run find the sessions in place. rows is the number of
// non-empty clusters each epoch must report.
func newDistRun(raw json.RawMessage, tp dist.Transport, workers []string, o obs.Observer, rep *report, rows int) (*distRun, error) {
	d := &distRun{rep: rep, rows: rows}
	co, err := dist.New(dist.Config{
		Session:   distSession,
		Spec:      raw,
		Build:     buildFixture,
		Workers:   workers,
		Transport: tp,
		Obs:       o,
		OnCommit:  d.commit,
	})
	if err != nil {
		return nil, err
	}
	d.co = co
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tp.Open(context.Background(), w, dist.OpenRequest{Session: distSession, Spec: raw})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// commit is the coordinator's OnCommit hook, shaped like the service's
// dist checkpoint: it checks the epoch and serializes the committed
// snapshot (in memory: disk checkpoints are measured by jobs-small).
func (d *distRun) commit(sn *field.Snapshot, rep *field.EpochReport) error {
	if d.onCommit != nil {
		d.onCommit(rep.Epoch, time.Now())
	}
	fails := checkEpoch(rep, len(d.commits), d.rows)
	if err := sn.WriteJSON(io.Discard); err != nil {
		fails = append(fails, fmt.Sprintf("epoch %d snapshot: %v", rep.Epoch, err))
	}
	d.rep.op(fails...)
	d.commits = append(d.commits, time.Now())
	return nil
}

// run drives the run to its epoch count and checks the summary.
func (d *distRun) run(epochs int) (*field.Summary, error) {
	d.start = time.Now()
	sum, err := d.co.Run(context.Background())
	if err != nil {
		return nil, err
	}
	if sum.Epochs != epochs || len(sum.Reports) != epochs {
		d.rep.op(fmt.Sprintf("dist summary has %d epochs, want %d", sum.Epochs, epochs))
	} else {
		d.rep.op()
	}
	return sum, nil
}

// epochSeconds are the committed epochs' wall times, commit to commit.
func (d *distRun) epochSeconds() []float64 {
	out := make([]float64, len(d.commits))
	prev := d.start
	for i, t := range d.commits {
		out[i] = t.Sub(prev).Seconds()
		prev = t
	}
	return out
}

// nonEmptyClusters counts the heads with at least one sensor.
func nonEmptyClusters(f *topo.Field) int {
	seen := make(map[int]bool)
	for _, k := range f.Assign {
		seen[k] = true
	}
	return len(seen)
}

// localFleet is dist.LocalTransport with one WorkerHost per worker name.
func localFleet() *dist.LocalTransport {
	lt := dist.NewLocalTransport()
	for _, w := range distWorkers {
		lt.AddWorker(w, dist.NewWorkerHost(buildFixture))
	}
	return lt
}

// runQuietDist is the quiet-dist-10k workload: the 10k field without
// shadowing, sharded over two in-process workers by the dist coordinator.
func runQuietDist(a runArgs) (*report, error) {
	steady := steadyEpochs(a.seconds, quietEpochSeconds, quietTracedEpochs)
	repeats := quietSetups
	if a.trace {
		steady, repeats = quietTracedEpochs, 1
	}
	var spec fixtureSpec
	var rows int
	rep := newReport()
	var reg *obs.Registry
	var d *distRun
	var setups, colds []float64
	// Each repeat sets a run up on its own deployment and runs its cold
	// epoch; the last one goes on through the steady epochs.
	for i := 0; i < repeats; i++ {
		d = nil
		spec = quietFixture(setupSeed(a.seed, i), steady+1)
		rows = nonEmptyClusters(spec.geometry())
		settle()
		s := spec
		if i < repeats-1 {
			s.Epochs = 1
		}
		raw, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		reg = obs.NewRegistry()
		start := time.Now()
		d, err = newDistRun(raw, localFleet(), distWorkers, reg.Observer(), rep, rows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < repeats-1 {
			if _, err := d.run(1); err != nil {
				return nil, err
			}
			colds = append(colds, d.epochSeconds()[0])
		}
	}
	p0 := sampleProc()
	summary, err := d.run(steady + 1)
	if err != nil {
		return nil, err
	}
	pd := p0.until(sampleProc())
	durs := d.epochSeconds()
	colds = append(colds, durs[0])
	rep.setFieldE2E(setups, colds, durs[1:], spec.Sensors)
	if !a.trace {
		return rep, nil
	}

	rep.setProc(pd, len(durs))
	var replans []float64
	for _, r := range summary.Reports[1:] {
		replans = append(replans, float64(r.Replans))
	}
	rep.set("field.replans", sum(replans)/float64(len(replans)))
	vals := regValues(reg)
	if b := vals[dist.MetricEpochBarrierSeconds]; b.Count > 0 {
		rep.set("program.dist.barrier_s", b.Sum/float64(b.Count))
	}
	rep.set("program.dist.reassigns", vals[dist.MetricShardReassigns].Value/float64(len(durs)))
	d, summary = nil, nil
	settle()

	small := spec
	small.Epochs = tracedSteadyEpochs + 1
	if _, err := traceFieldLayers(rep, a, small); err != nil {
		return nil, err
	}
	settle()
	traced, err := traceDist(rep, a, small, rows)
	if err != nil {
		return nil, err
	}
	rep.setOverhead(traced, durs)
	settle()
	return rep, diagnoseHTTP(rep, small, rows)
}

// tracedTransport is dist.LocalTransport with spans: each RunShard is a
// dist.rpc span holding the request's and the response's JSON round
// trips (dist.wire) and the worker's RunShard (dist.worker).
type tracedTransport struct {
	hosts map[string]*dist.WorkerHost
	tr    *tracer

	mu        sync.Mutex
	replies   map[int][]time.Time // epoch -> reply times
	wireBytes int64
}

func (t *tracedTransport) host(w string) (*dist.WorkerHost, error) {
	h := t.hosts[w]
	if h == nil {
		return nil, fmt.Errorf("unknown worker %q", w)
	}
	return h, nil
}

// roundTrip re-encodes v into out through JSON, as the wire would, and
// returns the encoded size.
func roundTrip(v, out any) (int, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return 0, err
	}
	return buf.Len(), json.Unmarshal(buf.Bytes(), out)
}

func (t *tracedTransport) Ping(ctx context.Context, w string) error {
	if _, err := t.host(w); err != nil {
		return err
	}
	return ctx.Err()
}

func (t *tracedTransport) Open(ctx context.Context, w string, req dist.OpenRequest) error {
	h, err := t.host(w)
	if err != nil {
		return err
	}
	var wire dist.OpenRequest
	if _, err := roundTrip(req, &wire); err != nil {
		return err
	}
	return h.Open(wire)
}

func (t *tracedTransport) RunShard(ctx context.Context, w string, req dist.EpochRequest) (*dist.EpochResponse, error) {
	h, err := t.host(w)
	if err != nil {
		return nil, err
	}
	id := epochTrace(req.Epoch)
	rpc := t.tr.begin(id, "dist.rpc", 0)
	defer t.tr.end(rpc)
	sp := t.tr.begin(id, "dist.wire", rpc)
	var wire dist.EpochRequest
	n1, err := roundTrip(req, &wire)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.tr.begin(id, "dist.worker", rpc)
	resp, err := h.RunShard(wire)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.tr.begin(id, "dist.wire", rpc)
	var out dist.EpochResponse
	n2, err := roundTrip(resp, &out)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.replies[req.Epoch] = append(t.replies[req.Epoch], time.Now())
	t.wireBytes += int64(n1 + n2)
	t.mu.Unlock()
	return &out, nil
}

func (t *tracedTransport) Close(ctx context.Context, w string, session string) error {
	h, err := t.host(w)
	if err != nil {
		return err
	}
	h.Close(session)
	return nil
}

// traceDist is the dist layer's traced pass: the coordinator over
// tracedTransport for a cold and tracedSteadyEpochs steady epochs.
// dist.rpc_s is the whole call (wire and worker); barrier_wait_s is how
// long the first reply of an epoch waited for the last; commit_s runs
// from the last reply to the commit hook (merge and snapshot). It
// returns the pass's epoch durations.
func traceDist(rep *report, a runArgs, spec fixtureSpec, rows int) ([]float64, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp := &tracedTransport{hosts: make(map[string]*dist.WorkerHost), tr: tr, replies: make(map[int][]time.Time)}
	for _, w := range distWorkers {
		tp.hosts[w] = dist.NewWorkerHost(buildFixture)
	}
	reg := obs.NewRegistry()
	discard := newReport()
	d, err := newDistRun(raw, tp, distWorkers, reg.Observer(), discard, rows)
	if err != nil {
		return nil, err
	}
	hooks := make(map[int]time.Time)
	d.onCommit = func(e int, at time.Time) { hooks[e] = at }
	if _, err := d.run(spec.Epochs); err != nil {
		return nil, err
	}
	if !discard.correct() {
		return nil, fmt.Errorf("traced dist pass: %v", discard.failures)
	}
	k := float64(tracedSteadyEpochs)
	var rpc, wait, commit float64
	for e := 1; e <= tracedSteadyEpochs; e++ {
		rs := tp.replies[e]
		first, last := rs[0], rs[0]
		for _, r := range rs {
			if r.Before(first) {
				first = r
			}
			if r.After(last) {
				last = r
			}
		}
		wait += last.Sub(first).Seconds()
		commit += hooks[e].Sub(last).Seconds()
	}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "dist.rpc" && s.Trace != epochTrace(0) {
			rpc += time.Duration(s.End - s.Start).Seconds()
		}
	}
	tr.mu.Unlock()
	self := tr.selfTimes(steadyTraces(tracedSteadyEpochs))
	rep.set("dist.rpc_s", rpc/k)
	rep.set("dist.worker_s", self["dist.worker"]/k)
	rep.set("dist.wire_s", self["dist.wire"]/k)
	rep.set("dist.wire_bytes", float64(tp.wireBytes)/float64(spec.Epochs))
	rep.set("dist.barrier_wait_s", wait/k)
	rep.set("dist.commit_s", commit/k)
	rep.set("dist.reassigns", regValues(reg)[dist.MetricShardReassigns].Value/float64(spec.Epochs))
	return d.epochSeconds(), tr.writeFile(filepath.Join(a.scratch, "trace-dist.jsonl"))
}

// diagnoseHTTP runs the fixture over dist.HTTPTransport (the zero value,
// as the service uses it) to two loopback WorkerHost.Handler listeners
// and reports new server connections per epoch, the steady epoch median
// and the process's CPU per wall second. It is a diagnostic, not an
// end-to-end workload.
func diagnoseHTTP(rep *report, spec fixtureSpec, rows int) error {
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var conns atomic.Int64
	var urls []string
	for range distWorkers {
		srv := httptest.NewUnstartedServer(dist.NewWorkerHost(buildFixture).Handler())
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	defer http.DefaultClient.CloseIdleConnections()
	discard := newReport()
	d, err := newDistRun(raw, &dist.HTTPTransport{}, urls, nil, discard, rows)
	if err != nil {
		return err
	}
	c0 := conns.Load()
	p0 := sampleProc()
	if _, err := d.run(spec.Epochs); err != nil {
		return err
	}
	pd := p0.until(sampleProc())
	if !discard.correct() {
		return fmt.Errorf("http dist pass: %v", discard.failures)
	}
	rep.set("dist.http_conns_per_epoch", float64(conns.Load()-c0)/float64(spec.Epochs))
	rep.set("dist.http_epoch_p50_s", median(d.epochSeconds()[1:]))
	rep.set("dist.http_cpu_per_wall", pd.cpuPerWall())
	return nil
}
