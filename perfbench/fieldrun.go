package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
)

// --seconds sizes a run by work, not by time, so that two commits measured
// with the same arguments do the same work: shadow-10k runs one steady
// epoch per shadowEpochSeconds of it, quiet-dist-10k one per
// quietEpochSeconds. On the 2-CPU reference machine a shadow-10k epoch
// takes 2.4 to 5.5 s and a steady quiet-dist-10k epoch 0.16 to 0.4 s,
// depending on how busy the host is.
const (
	shadowEpochSeconds = 2
	quietEpochSeconds  = 0.25
	// shadowSetups and quietSetups are how often an untraced run sets up
	// and runs a cold epoch; setup_s and cold_epoch_s are the medians.
	// A shadow-10k repeat costs two epochs' time, so it repeats less.
	shadowSetups = 2
	quietSetups  = 3
	// tracedSteadyEpochs is how many steady epochs the traced passes run
	// after their cold one.
	tracedSteadyEpochs = 3
	// fieldWorkers bounds compute parallelism on every workload.
	fieldWorkers = 2
)

func steadyEpochs(seconds int, perEpoch float64, least int) int {
	return max(least, int(math.Round(float64(seconds)/perEpoch)))
}

// checkEpoch checks one epoch report: its index follows the previous
// epoch's, it has one row per non-empty cluster in ascending cluster
// order, and no cluster delivered more than it offered.
func checkEpoch(rep *field.EpochReport, epoch, rows int) []string {
	var fails []string
	if rep.Epoch != epoch {
		fails = append(fails, fmt.Sprintf("epoch %d reported as epoch %d", epoch, rep.Epoch))
	}
	if len(rep.Clusters) != rows {
		fails = append(fails, fmt.Sprintf("epoch %d: %d cluster rows, want %d", epoch, len(rep.Clusters), rows))
	}
	for i, c := range rep.Clusters {
		if i > 0 && c.Cluster <= rep.Clusters[i-1].Cluster {
			fails = append(fails, fmt.Sprintf("epoch %d: cluster rows out of order at %d", epoch, c.Cluster))
		}
		if c.Delivered < 0 || c.Delivered > c.Offered {
			fails = append(fails, fmt.Sprintf("epoch %d cluster %d: delivered %d of %d offered", epoch, c.Cluster, c.Delivered, c.Offered))
		}
	}
	return fails
}

// setFieldE2E records the end-to-end metrics of a field workload: the
// set-up and cold-epoch times of each repeat, and the steady epochs of the
// last one. The run is one field job: its latency is set-up, cold epoch
// and steady epochs, what the caller of a one-shot field job of this size
// waits.
func (r *report) setFieldE2E(setups, colds, steady []float64, sensors int) {
	setup, cold := median(setups), median(colds)
	job := setup + cold + sum(steady)
	r.set("setup_s", setup)
	r.set("cold_epoch_s", cold)
	r.set("epoch_p50_s", median(steady))
	r.set("sensor_epochs_per_s", float64(sensors*(len(steady)+1))/(cold+sum(steady)))
	r.set("jobs_per_s", 1/job)
	r.set("job_latency_p50_s", job)
	r.set("job_latency_p95_s", job)
	r.set("max_rss_mb", maxRSSMB())
}

// runShadow is the shadow-10k workload: the in-process field runtime
// under shadow churn every epoch.
func runShadow(a runArgs) (*report, error) {
	steady := steadyEpochs(a.seconds, shadowEpochSeconds, tracedSteadyEpochs)
	repeats := shadowSetups
	if a.trace {
		// The traced run needs the untraced epochs only for the program's
		// counters and the overhead reference.
		steady, repeats = tracedSteadyEpochs, 1
	}
	var spec fixtureSpec
	rep := newReport()
	reg := obs.NewRegistry()
	o := exp.Options{Workers: fieldWorkers, Obs: reg.Observer()}
	var rt *field.Runtime
	var rows int
	var setups, colds, durs, oracle []float64
	// runEpoch runs and checks the runtime's next epoch.
	runEpoch := func() error {
		start := time.Now()
		ep, err := rt.RunEpoch(o)
		if err != nil {
			rep.op(err.Error())
			return err
		}
		durs = append(durs, time.Since(start).Seconds())
		rep.op(checkEpoch(&ep.Report, len(durs)-1, rows)...)
		tests := 0
		for _, s := range ep.Summaries {
			if s != nil {
				tests += s.OracleTests
			}
		}
		oracle = append(oracle, float64(tests))
		return nil
	}
	// Each repeat sets up a fresh runtime on its own deployment and runs
	// its cold epoch; the last one goes on through the steady epochs.
	for i := 0; i < repeats; i++ {
		rt, durs, oracle = nil, nil, nil
		spec = shadowFixture(setupSeed(a.seed, i), steady+1)
		settle()
		start := time.Now()
		var err error
		rt, err = field.New(spec.geometry(), spec.config())
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		rows = len(rt.ClusterIndexes())
		if err := runEpoch(); err != nil {
			return nil, err
		}
		colds = append(colds, durs[0])
	}
	cold := regValues(reg)
	p0 := sampleProc()
	for e := 1; e <= steady; e++ {
		if err := runEpoch(); err != nil {
			return nil, err
		}
	}
	pd := p0.until(sampleProc())
	if got := rt.Summary().Epochs; got != len(durs) {
		rep.op(fmt.Sprintf("summary has %d epochs, ran %d", got, len(durs)))
	} else {
		rep.op()
	}
	var replans []float64
	for _, r := range rt.Summary().Reports[min(1, len(rt.Summary().Reports)):] {
		replans = append(replans, float64(r.Replans))
	}
	rep.setFieldE2E(setups, colds, durs[1:], spec.Sensors)
	if !a.trace {
		return rep, nil
	}

	rep.setProc(pd, steady)
	rep.set("field.replans", sum(replans)/float64(max(len(replans), 1)))
	end := regValues(reg)
	rep.setProgramCounters(cold, end, steady)
	rep.set("program.cluster.oracle_tests", sum(oracle[1:])/float64(steady))
	rt = nil
	settle()
	traced, err := traceFieldLayers(rep, a, spec)
	if err != nil {
		return nil, err
	}
	rep.setOverhead(traced, durs)
	return rep, nil
}

// setProgramCounters records the program's own per-epoch counters over
// the steady epochs: the difference between the registry after the cold
// epoch and at the end.
func (r *report) setProgramCounters(cold, end map[string]obs.MetricSnapshot, steady int) {
	delta := func(name string) float64 { return end[name].Value - cold[name].Value }
	per := func(name string) float64 { return delta(name) / float64(steady) }
	r.set("program.routing.solves", per(routing.MetricSolves))
	hits, misses := delta(field.MetricPlanCacheHits), delta(field.MetricPlanCacheMisses)
	if hits+misses > 0 {
		r.set("program.routing.cache_hit_frac", hits/(hits+misses))
	}
	r.set("program.radio.links_refreshed", per(field.MetricRadioRefreshLinks))
	r.set("program.radio.pairs_materialized", end[field.MetricRadioPairs].Value)
	r.set("program.field.shard_skew", skew(familySums(cold, end, field.MetricShardSeconds)))
}

// traceFieldLayers is the traced pass of a field workload: its own copy
// of the fixture driven through the mirror for a cold and
// tracedSteadyEpochs steady epochs. It returns the epochs' durations.
func traceFieldLayers(rep *report, a runArgs, spec fixtureSpec) ([]float64, error) {
	tr := newTracer()
	m, err := newMirror(func() (*topo.Field, field.Config, error) {
		return spec.geometry(), spec.config(), nil
	}, fieldWorkers, tr, obs.NewRegistry().Observer(), "setup")
	if err != nil {
		return nil, err
	}
	var counts epochCounts
	var traced []float64
	shardSecs := make([]float64, len(m.shards))
	for e := 0; e <= tracedSteadyEpochs; e++ {
		start := time.Now()
		ec, err := m.runEpoch(e, epochTrace(e))
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(start).Seconds())
		if e == 0 {
			continue
		}
		counts.add(ec, shardSecs)
	}
	k := float64(tracedSteadyEpochs)
	self := tr.selfTimes(steadyTraces(tracedSteadyEpochs))
	for _, layer := range []string{"radio.refresh", "routing.plan", "sector.partition", "cluster.simulate", "field.churn"} {
		rep.set(layer+"_s", self[layer]/k)
	}
	rep.set("topo.build_s", tr.selfTimes(only("setup"))["topo.build"])
	rep.set("routing.cold_plan_s", tr.selfTimes(only(epochTrace(0)))["routing.plan"])
	rep.set("routing.solves", float64(counts.solves)/k)
	rep.set("routing.augment_paths", float64(counts.augments)/k)
	rep.set("routing.cache_hit_frac", float64(counts.hits)/float64(max(counts.hits+counts.misses, 1)))
	rep.set("radio.links_refreshed", float64(counts.linksRefreshed)/k)
	rep.set("radio.pairs_materialized", float64(counts.pairs)/k)
	rep.set("cluster.oracle_tests", float64(counts.oracleTests)/k)
	rep.set("cluster.slots", float64(counts.slots)/k)
	rep.set("field.shard_skew", skew(shardSecs))
	return traced, tr.writeFile(filepath.Join(a.scratch, "trace-layers.jsonl"))
}

// setOverhead records the tracing overhead: the traced pass's epochs
// against the same epochs of the untraced run.
func (r *report) setOverhead(traced, untraced []float64) {
	n := min(len(traced), len(untraced))
	t, u := sum(traced[:n]), sum(untraced[:n])
	r.set("trace.traced_s", t)
	r.set("trace.untraced_s", u)
	r.set("trace.overhead_frac", t/u-1)
}
