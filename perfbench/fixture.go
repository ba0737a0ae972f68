package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/service"
	"repro/internal/topo"
)

// DefaultSeed is the --seed default, and the seed of the 10k fixtures'
// base deployment: BenchmarkFieldEpochLarge's topo.BuildField(4242, 2000,
// 12, 10000).
const DefaultSeed = 4242

// Salts separating the streams one --seed derives.
const (
	saltChurn = 0xc4a7
	saltJob   = 0x70b5
	saltLoss  = 0x1055
	saltSetup = 0x5e70
)

// deriveSeed maps (seed, salt, i) to an independent seed (splitmix64).
func deriveSeed(seed int64, salt, i uint64) int64 {
	h := uint64(seed) ^ salt*0x9e3779b97f4a7c15 ^ i*0xbf58476d1ce4e5b9
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h >> 1)
}

// setupSeed is the fixture seed of a run's i-th set-up. A cold epoch's
// work depends on the deployment: on the same host, one seed's
// quiet-dist-10k cold epoch took 2.8-3.0 s and another's 3.9-4.1 s. Each
// set-up therefore jitters its own deployment, so that cold_epoch_s, their
// median, varies less from seed to seed than one deployment's cold epoch.
func setupSeed(seed int64, i int) int64 { return deriveSeed(seed, saltSetup, uint64(i)) }

// fixtureSpec is the deployment a field workload simulates, as pure data:
// the dist workers rebuild it from these bytes. The 10k fixture is the
// BenchmarkFieldEpochLarge field; tests use smaller ones.
type fixtureSpec struct {
	// Seed jitters the base deployment, topo.BuildField(DefaultSeed, ...):
	// every sensor moves by up to jitterM metres in x and y, so each seed
	// has its own links, routes and Voronoi borders. Drawing a fresh
	// deployment per seed instead swings an epoch's work by 40% from seed
	// to seed (the head layout sets the cluster sizes, and the largest
	// clusters set the epoch time), which no run length averages away.
	Seed    int64   `json:"seed"`
	Side    float64 `json:"side"`
	Heads   int     `json:"heads"`
	Sensors int     `json:"sensors"`
	// ShadowSigmaDB > 0 shifts the shadowing every epoch.
	ShadowSigmaDB float64 `json:"shadow_sigma_db,omitempty"`
	FaultRate     float64 `json:"fault_rate,omitempty"`
	BatteryJoules float64 `json:"battery_joules,omitempty"`
	// ChurnSeed drives fault and shadow draws, LossSeed the cluster
	// runtime's loss draws.
	ChurnSeed int64 `json:"churn_seed"`
	LossSeed  int64 `json:"loss_seed"`
	Epochs    int   `json:"epochs"`
}

// jitterM is the fixtures' jitter: about the mean distance between
// neighbouring sensors, a quarter of the 40 m sensor range.
const jitterM = 10

// shadowFixture is the shadow-10k deployment.
func shadowFixture(seed int64, epochs int) fixtureSpec {
	return fixtureSpec{
		Seed: seed, Side: 2000, Heads: 12, Sensors: 10_000,
		ShadowSigmaDB: 3,
		ChurnSeed:     deriveSeed(seed, saltChurn, 0),
		LossSeed:      deriveSeed(seed, saltLoss, 0),
		Epochs:        epochs,
	}
}

// quietFixture is the quiet-dist-10k deployment: the same field without
// shadowing. A fault rate of 0.02 per cluster per epoch re-plans one of
// the 12 clusters in about a fifth of the epochs, so the steady-epoch
// median sits well inside the plan-cache-hit mode (at 0.05 nearly half
// of the epochs re-plan and the median flips between modes). The
// batteries are on, but an epoch drains at most 0.63 J, so 1000 J
// outlasts any run.
func quietFixture(seed int64, epochs int) fixtureSpec {
	return fixtureSpec{
		Seed: seed, Side: 2000, Heads: 12, Sensors: 10_000,
		FaultRate:     0.02,
		BatteryJoules: 1000,
		ChurnSeed:     deriveSeed(seed, saltChurn, 0),
		LossSeed:      deriveSeed(seed, saltLoss, 0),
		Epochs:        epochs,
	}
}

// geometry deploys the fixture: the base deployment, jittered by Seed.
func (fs fixtureSpec) geometry() *topo.Field {
	f := topo.BuildField(DefaultSeed, fs.Side, fs.Heads, fs.Sensors)
	rng := rand.New(rand.NewSource(fs.Seed))
	for i, p := range f.Sensors {
		x := p.X + (2*rng.Float64()-1)*jitterM
		y := p.Y + (2*rng.Float64()-1)*jitterM
		f.Sensors[i] = geom.Point{X: min(max(x, 0), fs.Side), Y: min(max(y, 0), fs.Side)}
	}
	f.Assign = geom.VoronoiAssign(f.Sensors, f.Heads)
	return f
}

// config is the field runtime configuration: BenchmarkFieldEpochLarge's
// radio and cluster parameters, with a fresh propagation model per call
// (shadow churn mutates it in place).
func (fs fixtureSpec) config() field.Config {
	tc := topo.DefaultConfig(0, 0)
	tc.Prop = radio.NewLogDistance(3.5, 1)
	tc.SensorRange = 40
	tc.HeadRange = fs.Side
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	p.Seed = fs.LossSeed
	cfg := field.Config{
		Topo:              tc,
		Params:            p,
		InterferenceRange: 80,
		BatteryJoules:     fs.BatteryJoules,
		EpochCycles:       1,
		Epochs:            fs.Epochs,
		Churn:             field.Churn{FaultRate: fs.FaultRate, Seed: fs.ChurnSeed},
	}
	if fs.ShadowSigmaDB > 0 {
		cfg.Churn.ShadowSigmaDB = fs.ShadowSigmaDB
		cfg.Churn.ShadowEvery = 1
	}
	return cfg
}

// buildFixture is the dist.Builder for fixture specs.
func buildFixture(raw json.RawMessage) (*topo.Field, field.Config, error) {
	var fs fixtureSpec
	if err := json.Unmarshal(raw, &fs); err != nil {
		return nil, field.Config{}, fmt.Errorf("decode fixture spec: %w", err)
	}
	if fs.Heads < 1 || fs.Sensors < 1 || fs.Side <= 0 {
		return nil, field.Config{}, fmt.Errorf("fixture spec %+v: empty deployment", fs)
	}
	return fs.geometry(), fs.config(), nil
}

// jobSpec is the i-th jobs-small submission: a 400-sensor, 6-head field
// job of 6 epochs with fault churn and battery accounting, on its own
// deployment seed.
func jobSpec(seed int64, i int) service.Spec {
	s := deriveSeed(seed, saltJob, uint64(i))
	return service.Spec{
		Type:    service.TypeField,
		Workers: 1,
		Field: &service.FieldSpec{
			Seed:              s,
			Side:              300,
			Heads:             6,
			Sensors:           400,
			SensorRange:       40,
			InterferenceRange: 80,
			BatteryJoules:     2,
			EpochCycles:       1,
			Epochs:            jobEpochs,
			FaultRate:         0.2,
			ChurnSeed:         deriveSeed(s, saltChurn, 0),
		},
	}
}

// jobEpochs is every jobs-small job's epoch count.
const jobEpochs = 6
