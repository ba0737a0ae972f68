package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/service"
)

const (
	// jobClients is the closed loop's client count; each waits for its
	// job's event stream to close before submitting the next job.
	jobClients = 2
	// jobsPerSecond sizes the run: it runs this many jobs per second of
	// --seconds (17 to 40 complete per second on the reference machine).
	jobsPerSecond = 30
	// warmupJobs is how many jobs each client runs during set-up.
	warmupJobs = 8
	// jobSetupRepeats is how often an untraced run starts a daemon and
	// warms it up; setup_s is the median.
	jobSetupRepeats = 5
	// tracedJobs is how many jobs the traced pass drives.
	tracedJobs = 20
)

// daemon is mhpolld in-process: a job manager on its own spool behind the
// HTTP API on a loopback listener.
type daemon struct {
	m   *service.Manager
	srv *httptest.Server
	reg *obs.Registry
	dir string
}

func startDaemon(dir string) (*daemon, error) {
	reg := obs.NewRegistry()
	m, err := service.New(service.Config{SpoolDir: dir, Workers: 2, Obs: reg.Observer()})
	if err != nil {
		return nil, err
	}
	m.Start()
	return &daemon{m: m, srv: httptest.NewServer(service.NewServer(m, reg, nil)), reg: reg, dir: dir}, nil
}

// stop shuts the daemon down and deletes its spool.
func (d *daemon) stop() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.m.Stop(ctx); err != nil {
		return err
	}
	return os.RemoveAll(d.dir)
}

// jobClient submits jobs and follows their event streams over one
// connection.
type jobClient struct {
	base string
	hc   *http.Client
}

func newJobClient(base string) *jobClient {
	return &jobClient{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// jobRun is one job as a client saw it.
type jobRun struct {
	submitted, accepted, streamEnd time.Time
	firstEpoch                     time.Time // arrival of the first epoch event
	epochEvents                    int
	job                            service.Job
}

// run submits spec, reads the job's events until the stream closes and
// fetches the finished job. An error is a transport failure; fails lists
// the output checks the job did not pass.
func (c *jobClient) run(spec service.Spec) (*jobRun, []string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	jr := &jobRun{submitted: time.Now()}
	var sub service.Job
	if err := c.do(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		return nil, nil, err
	}
	jr.accepted = time.Now()
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var fails []string
	for sc.Scan() {
		if line := sc.Text(); line == "event: epoch" {
			if jr.epochEvents == 0 {
				jr.firstEpoch = time.Now()
			}
			jr.epochEvents++
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	jr.streamEnd = time.Now()
	if err := c.do(http.MethodGet, "/v1/jobs/"+sub.ID, nil, http.StatusOK, &jr.job); err != nil {
		return nil, nil, err
	}
	fails = checkJob(&jr.job, spec.Field.Epochs)
	if jr.epochEvents != spec.Field.Epochs {
		fails = append(fails, fmt.Sprintf("job %s: %d epoch events, want %d", sub.ID, jr.epochEvents, spec.Field.Epochs))
	}
	return jr, fails, nil
}

// checkJob checks a finished job: state done, and a result that decodes
// to a field.Summary of the requested epoch count whose every epoch
// passes checkEpoch.
func checkJob(j *service.Job, epochs int) []string {
	if j.State != service.StateDone {
		return []string{fmt.Sprintf("job %s ended %s: %s", j.ID, j.State, j.Error)}
	}
	var s field.Summary
	if err := json.Unmarshal(j.Result, &s); err != nil {
		return []string{fmt.Sprintf("job %s: result: %v", j.ID, err)}
	}
	if s.Epochs != epochs || len(s.Reports) != epochs {
		return []string{fmt.Sprintf("job %s: summary of %d epochs (%d reports), want %d", j.ID, s.Epochs, len(s.Reports), epochs)}
	}
	var fails []string
	for e := range s.Reports {
		fails = append(fails, checkEpoch(&s.Reports[e], e, s.Clusters)...)
	}
	if s.DeliveredTotal > s.OfferedTotal {
		fails = append(fails, fmt.Sprintf("job %s: delivered %d of %d offered", j.ID, s.DeliveredTotal, s.OfferedTotal))
	}
	return fails
}

func (c *jobClient) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// loop runs jobs first..first+n-1 over the clients, each client taking
// the next job as soon as its previous one finished.
func loop(clients []*jobClient, seed int64, first, n int, rep *report) ([]*jobRun, error) {
	runs := make([]*jobRun, n)
	var next int
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				jr, fails, err := c.run(jobSpec(seed, first+i))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					runs[i] = jr
					if rep != nil {
						rep.op(fails...)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, firstErr
}

// runJobs is the jobs-small workload: two closed-loop clients against
// mhpolld in-process.
func runJobs(a runArgs) (*report, error) {
	n := a.seconds * jobsPerSecond
	repeats := jobSetupRepeats
	if a.trace {
		n, repeats = max(tracedJobs, n/4), 1
	}
	rep := newReport()
	var d *daemon
	var clients []*jobClient
	closeClients := func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}
	defer closeClients()
	var setups []float64
	for i := 0; i < repeats; i++ {
		if d != nil {
			closeClients()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		settle()
		start := time.Now()
		var err error
		d, err = startDaemon(filepath.Join(a.scratch, fmt.Sprintf("spool-%d", i)))
		if err != nil {
			return nil, err
		}
		clients = clients[:0]
		for c := 0; c < jobClients; c++ {
			clients = append(clients, newJobClient(d.srv.URL))
		}
		if _, err := loop(clients, a.seed, -jobClients*warmupJobs, jobClients*warmupJobs, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()

	before := regValues(d.reg)
	p0 := sampleProc()
	runs, err := loop(clients, a.seed, 0, n, rep)
	if err != nil {
		return nil, err
	}
	pd := p0.until(sampleProc())
	spec := jobSpec(a.seed, 0).Field
	var lat, first, perEpoch []float64
	for _, jr := range runs {
		lat = append(lat, jr.streamEnd.Sub(jr.submitted).Seconds())
		if jr.epochEvents > 0 {
			first = append(first, jr.firstEpoch.Sub(jr.submitted).Seconds())
		}
		if j := jr.job; j.Started != nil && j.Finished != nil {
			perEpoch = append(perEpoch, j.Finished.Sub(*j.Started).Seconds()/float64(spec.Epochs))
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("cold_epoch_s", median(first))
	rep.set("epoch_p50_s", median(perEpoch))
	rep.set("sensor_epochs_per_s", float64(spec.Sensors*spec.Epochs*n)/pd.wall.Seconds())
	rep.set("jobs_per_s", float64(n)/pd.wall.Seconds())
	rep.set("job_latency_p50_s", quantile(lat, 0.5))
	rep.set("job_latency_p95_s", quantile(lat, 0.95))
	rep.set("max_rss_mb", maxRSSMB())
	if !a.trace {
		return rep, nil
	}

	rep.setProc(pd, n)
	var submit, wait, run, notify []float64
	for _, jr := range runs {
		j := jr.job
		if j.Started == nil || j.Finished == nil {
			continue // failed its checks; counted in success_frac
		}
		submit = append(submit, jr.accepted.Sub(jr.submitted).Seconds())
		wait = append(wait, j.Started.Sub(j.Created).Seconds())
		run = append(run, j.Finished.Sub(*j.Started).Seconds())
		notify = append(notify, jr.streamEnd.Sub(*j.Finished).Seconds())
	}
	perJob := func(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }
	rep.set("service.submit_s", perJob(submit))
	rep.set("service.queue_wait_s", perJob(wait))
	rep.set("service.run_s", perJob(run))
	rep.set("service.notify_s", perJob(notify))
	vals := regValues(d.reg)
	if h := vals[service.MetricSchedDelay]; h.Count > 0 {
		rep.set("service.sched_delay_s", h.Sum/float64(h.Count))
	}
	rep.setProgramCounters(before, vals, n)
	return rep, traceJobs(rep, a)
}

// traceJobs is the jobs-small traced pass. Each of the first tracedJobs
// job specs runs twice outside the daemon: through the mirror, with spans
// (trace id job-i/epoch-e), and through field.Runtime with each epoch's
// checkpoint written by field.Snapshot.WriteFile as the service does.
// The second run, checkpoints left out, is the untraced reference for the
// overhead.
func traceJobs(rep *report, a runArgs) error {
	tr := newTracer()
	dir := filepath.Join(a.scratch, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var traced, untraced []float64
	var counts epochCounts
	var checkpoint float64
	var skews []float64
	for i := 0; i < tracedJobs; i++ {
		fs := jobSpec(a.seed, i).Field
		id := fmt.Sprintf("job-%d", i)
		start := time.Now()
		m, err := newMirror(fs.Build, 1, tr, obs.NewRegistry().Observer(), id+"/setup")
		if err != nil {
			return err
		}
		shardSecs := make([]float64, len(m.shards))
		for e := 0; e < fs.Epochs; e++ {
			ec, err := m.runEpoch(e, fmt.Sprintf("%s/epoch-%d", id, e))
			if err != nil {
				return err
			}
			counts.add(ec, shardSecs)
		}
		skews = append(skews, skew(shardSecs))
		traced = append(traced, time.Since(start).Seconds())

		start = time.Now()
		f, cfg, err := fs.Build()
		if err != nil {
			return err
		}
		rt, err := field.New(f, cfg)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, id+".json")
		var ckpt float64
		for e := 0; e < fs.Epochs; e++ {
			if _, err := rt.RunEpoch(exp.Options{Workers: 1}); err != nil {
				return err
			}
			sp := time.Now()
			if err := rt.Snapshot().WriteFile(path); err != nil {
				return err
			}
			ckpt += time.Since(sp).Seconds()
		}
		checkpoint += ckpt
		untraced = append(untraced, time.Since(start).Seconds()-ckpt)
	}
	k := float64(tracedJobs)
	self := tr.selfTimes(func(string) bool { return true })
	for _, layer := range []string{"topo.build", "radio.refresh", "routing.plan", "sector.partition", "cluster.simulate", "field.churn"} {
		rep.set(layer+"_s", self[layer]/k)
	}
	rep.set("routing.cold_plan_s", tr.selfTimes(func(id string) bool { return strings.HasSuffix(id, "/epoch-0") })["routing.plan"]/k)
	rep.set("routing.solves", float64(counts.solves)/k)
	rep.set("routing.augment_paths", float64(counts.augments)/k)
	rep.set("routing.cache_hit_frac", float64(counts.hits)/float64(max(counts.hits+counts.misses, 1)))
	rep.set("radio.links_refreshed", float64(counts.linksRefreshed)/k)
	rep.set("radio.pairs_materialized", float64(counts.pairs)/k)
	rep.set("cluster.oracle_tests", float64(counts.oracleTests)/k)
	rep.set("cluster.slots", float64(counts.slots)/k)
	rep.set("field.replans", float64(counts.replans)/k)
	rep.set("field.shard_skew", sum(skews)/k)
	rep.set("service.checkpoint_s", checkpoint/k)
	rep.setOverhead(traced, untraced)
	return tr.writeFile(filepath.Join(a.scratch, "trace-jobs.jsonl"))
}
