package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/topo"
)

// smallFixture is a reduced 10k fixture: the same sensor density and
// radio on a 400 m square.
func smallFixture(seed int64, epochs int) fixtureSpec {
	return fixtureSpec{
		Seed: seed, Side: 400, Heads: 4, Sensors: 400,
		ChurnSeed: deriveSeed(seed, saltChurn, 0),
		LossSeed:  deriveSeed(seed, saltLoss, 0),
		Epochs:    epochs,
	}
}

// TestQuietDistMatchesFieldRuntime pins that the quiet-dist workload's
// coordinator run, checks included, produces the Summary a single-process
// field.Runtime produces on the same spec, byte for byte.
func TestQuietDistMatchesFieldRuntime(t *testing.T) {
	spec := smallFixture(7, 5)
	spec.FaultRate = 0.3
	spec.BatteryJoules = 2
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	d, err := newDistRun(raw, localFleet(), distWorkers, nil, rep, nonEmptyClusters(spec.geometry()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.run(spec.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() || rep.attempted != spec.Epochs+1 {
		t.Fatalf("dist run: %d ops, failures %v", rep.attempted, rep.failures)
	}
	rt, err := field.New(spec.geometry(), spec.config())
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.Run(exp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.ReplansTotal == 0 || len(want.Deaths) == 0 {
		t.Fatalf("fixture exercises no churn: %d replans, %d deaths", want.ReplansTotal, len(want.Deaths))
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("dist summary differs from field.Runtime:\n got %s\nwant %s", gb, wb)
	}
}

// TestTraceMirrorMatchesProgram pins the traced run to the program: the
// mirror's routing solves and oracle tests equal the program's
// routing_solves_total and summed Summary.OracleTests, on a churn-free
// epoch 0 and across shadow-churned epochs.
func TestTraceMirrorMatchesProgram(t *testing.T) {
	shadow := smallFixture(11, 3)
	shadow.ShadowSigmaDB = 3
	for name, spec := range map[string]fixtureSpec{
		"churn-free": smallFixture(11, 1),
		"shadow":     shadow,
	} {
		t.Run(name, func(t *testing.T) {
			rt, err := field.New(spec.geometry(), spec.config())
			if err != nil {
				t.Fatal(err)
			}
			m, err := newMirror(func() (*topo.Field, field.Config, error) {
				return spec.geometry(), spec.config(), nil
			}, fieldWorkers, newTracer(), nil, "setup")
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < spec.Epochs; e++ {
				reg := obs.NewRegistry()
				ep, err := rt.RunEpoch(exp.Options{Workers: fieldWorkers, Obs: reg.Observer()})
				if err != nil {
					t.Fatal(err)
				}
				tests := 0
				for _, s := range ep.Summaries {
					if s != nil {
						tests += s.OracleTests
					}
				}
				ec, err := m.runEpoch(e, epochTrace(e))
				if err != nil {
					t.Fatal(err)
				}
				solves := int(regValues(reg)[routing.MetricSolves].Value)
				if solves == 0 || ec.solves != solves || ec.oracleTests != tests || ec.replans != ep.Report.Replans {
					t.Fatalf("epoch %d: traced solves %d, oracle tests %d, replans %d; program %d, %d, %d",
						e, ec.solves, ec.oracleTests, ec.replans, solves, tests, ep.Report.Replans)
				}
			}
		})
	}
}

// TestCheckEpoch pins the per-epoch output checks.
func TestCheckEpoch(t *testing.T) {
	good := func() *field.EpochReport {
		return &field.EpochReport{Epoch: 2, Clusters: []field.ClusterEpoch{
			{Cluster: 0, Offered: 10, Delivered: 9}, {Cluster: 3, Offered: 5, Delivered: 5},
		}}
	}
	if f := checkEpoch(good(), 2, 2); len(f) != 0 {
		t.Fatalf("good epoch failed: %v", f)
	}
	for name, mutate := range map[string]func(*field.EpochReport){
		"wrong index":     func(r *field.EpochReport) { r.Epoch = 3 },
		"missing row":     func(r *field.EpochReport) { r.Clusters = r.Clusters[:1] },
		"rows unordered":  func(r *field.EpochReport) { r.Clusters[1].Cluster = 0 },
		"over-delivery":   func(r *field.EpochReport) { r.Clusters[0].Delivered = 11 },
		"negative output": func(r *field.EpochReport) { r.Clusters[1].Delivered = -1 },
	} {
		r := good()
		mutate(r)
		if f := checkEpoch(r, 2, 2); len(f) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestSelfTimes pins self time: a span's duration minus the union of its
// children's intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Trace: "a", Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: "a", Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: "a", Name: "kid", Start: 30, End: 50},
		{ID: 4, Parent: 1, Trace: "a", Name: "kid", Start: 90, End: 120},
		{ID: 5, Trace: "b", Name: "root", Start: 0, End: 1000},
	}
	got := tr.selfTimes(only("a"))
	for name, want := range map[string]float64{"root": 50e-9, "kid": 80e-9} {
		if math.Abs(got[name]-want) > 1e-15 {
			t.Errorf("%s self time %g, want %g", name, got[name], want)
		}
	}
}

// TestJobsWorkload runs a short traced jobs-small: every job must pass
// its checks and the traced pass must fill the service metrics.
func TestJobsWorkload(t *testing.T) {
	rep, err := runJobs(runArgs{seed: 3, seconds: 1, trace: true, scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() || rep.attempted != tracedJobs {
		t.Fatalf("%d jobs, failures %v", rep.attempted, rep.failures)
	}
	for _, name := range []string{"jobs_per_s", "job_latency_p95_s", "service.run_s", "service.checkpoint_s", "routing.solves"} {
		if rep.values[name] <= 0 {
			t.Errorf("%s = %g", name, rep.values[name])
		}
	}
}

// TestCheckJob pins the per-job output checks.
func TestCheckJob(t *testing.T) {
	sum := field.Summary{Clusters: 1, Epochs: 2, Reports: []field.EpochReport{
		{Epoch: 0, Clusters: []field.ClusterEpoch{{Offered: 3, Delivered: 3}}},
		{Epoch: 1, Clusters: []field.ClusterEpoch{{Offered: 3, Delivered: 2}}},
	}}
	res, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if f := checkJob(&service.Job{State: service.StateDone, Result: res}, 2); len(f) != 0 {
		t.Fatalf("good job failed: %v", f)
	}
	for name, j := range map[string]service.Job{
		"failed":       {State: service.StateFailed, Result: res},
		"short result": {State: service.StateDone, Result: res[:len(res)/2]},
	} {
		if f := checkJob(&j, 2); len(f) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
	if f := checkJob(&service.Job{State: service.StateDone, Result: res}, 3); len(f) == 0 {
		t.Error("wrong epoch count: check passed")
	}
}
