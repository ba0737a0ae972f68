package field

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/topo"
)

// legacyField is what the retired sequential field loop reported.
type legacyField struct {
	Clusters, Channels       int
	Colors                   []int
	PerCluster               []*cluster.Summary
	Stranded                 int
	TokenCycle, ColoredCycle time.Duration
	Lifetime                 time.Duration
}

// legacyRunField is the retired sequential field loop, kept verbatim as
// the regression oracle: one churn-free epoch of the runtime must
// reproduce it bit for bit.
func legacyRunField(f *topo.Field, cfg topo.Config, p cluster.Params, cycles int,
	interferenceRange, batteryJoules float64) (*legacyField, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("cluster: need at least one cycle")
	}
	colors, channels := f.ChannelAssignment(interferenceRange)
	em := energy.DefaultModel()
	out := &legacyField{Channels: channels}
	var duties []time.Duration
	var dutyColors []int
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg)
		if err != nil {
			return nil, err
		}
		if c.Sensors() == 0 {
			continue
		}
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", k, err)
		}
		out.Stranded += len(r.Unreachable)
		s, err := r.Run(cycles)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", k, err)
		}
		out.Clusters++
		out.PerCluster = append(out.PerCluster, s)
		out.Colors = append(out.Colors, colors[k])
		duties = append(duties, s.MeanDuty)
		dutyColors = append(dutyColors, colors[k])
		if len(r.Unreachable) < c.Sensors() { // at least one live sensor
			lt := s.Lifetime(em, batteryJoules)
			if out.Lifetime == 0 || lt < out.Lifetime {
				out.Lifetime = lt
			}
		}
	}
	out.TokenCycle = cluster.TokenRotationCycle(duties)
	colored, err := cluster.ColoredCycle(duties, dutyColors)
	if err != nil {
		return nil, err
	}
	out.ColoredCycle = colored
	return out, nil
}

func TestRunFieldMatchesLegacy(t *testing.T) {
	for _, loss := range []float64{0, 0.02} {
		f := topo.BuildField(11, 300, 5, 80)
		cfg := topo.DefaultConfig(0, 0)
		p := cluster.DefaultParams()
		p.RateBps = 20
		p.LossProb = loss
		p.Seed = 42

		want, err := legacyRunField(f, cfg, p, 2, 80, 100)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(f, Config{
			Topo: cfg, Params: p, InterferenceRange: 80, BatteryJoules: 100,
			Energy: energy.DefaultModel(), EpochCycles: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := rt.RunEpoch(exp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := &legacyField{
			Channels:     rt.Channels(),
			TokenCycle:   ep.Report.TokenCycle,
			ColoredCycle: ep.Report.ColoredCycle,
			Lifetime:     rt.Summary().Lifetime,
		}
		for _, row := range ep.Report.Clusters {
			got.Clusters++
			got.PerCluster = append(got.PerCluster, ep.Summaries[row.Cluster])
			got.Colors = append(got.Colors, row.Channel)
			got.Stranded += rt.clusters[row.Cluster].Sensors() - row.Live
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("loss %v: runtime diverges from the legacy loop:\n got %+v\nwant %+v", loss, got, want)
		}
		if got.Clusters == 0 {
			t.Fatal("no clusters simulated")
		}
	}
}

func TestRunFieldValidation(t *testing.T) {
	f := topo.BuildField(3, 200, 2, 10)
	cfg := topo.DefaultConfig(0, 0)
	if _, err := New(f, Config{Topo: cfg, Params: cluster.DefaultParams()}); err == nil {
		t.Fatal("non-positive interference range should error")
	}
	bad := cluster.DefaultParams()
	bad.BandwidthBps = 0
	if _, err := New(f, Config{Topo: cfg, Params: bad, InterferenceRange: 80}); err == nil {
		t.Fatal("invalid cluster params should error")
	}
}

func TestEmptyField(t *testing.T) {
	// A field with heads but no sensors: nothing runs, nothing breaks.
	f := topo.BuildField(5, 100, 3, 0)
	cfg := topo.DefaultConfig(0, 0)
	rt, err := New(f, Config{
		Topo: cfg, Params: cluster.DefaultParams(),
		InterferenceRange: 80, BatteryJoules: 100, Epochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters != 0 || s.OfferedTotal != 0 || len(s.Deaths) != 0 {
		t.Fatalf("empty field produced activity: %+v", s)
	}
	if s.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", s.Epochs)
	}
	if s.MaxColoredCycle() != 0 || !s.FitsCycle(0) {
		t.Fatal("empty field must fit the zero cycle")
	}
}

func TestRunCancellation(t *testing.T) {
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Run(exp.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rt.Epoch() != 0 {
		t.Fatalf("canceled run advanced to epoch %d", rt.Epoch())
	}
	// The runtime is still usable: a fresh Run completes the schedule.
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs != cfg.epochs() {
		t.Fatalf("epochs = %d, want %d", s.Epochs, cfg.epochs())
	}
}

func TestBatteryDepletionKills(t *testing.T) {
	// A near-empty battery: every active sensor dies at the first
	// boundary, with cause "battery", and the next epoch runs dark.
	f := topo.BuildField(11, 200, 2, 30)
	cfg := topo.DefaultConfig(0, 0)
	cfg.SensorRange = 40
	cfg.HeadRange = 200
	p := cluster.DefaultParams()
	p.RateBps = 15
	rt, err := New(f, Config{
		Topo: cfg, Params: p, InterferenceRange: 80,
		BatteryJoules: 1e-9, Epochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Deaths) == 0 {
		t.Fatal("no battery deaths at a near-zero capacity")
	}
	for _, d := range s.Deaths {
		if d.Cause != "battery" {
			t.Fatalf("death cause %q, want battery", d.Cause)
		}
	}
	if s.FirstDeath == 0 {
		t.Fatal("FirstDeath not stamped")
	}
	// The heads keep cycling after field-wide depletion, but nobody
	// answers: the last epoch is dark.
	last := s.Reports[len(s.Reports)-1]
	for _, c := range last.Clusters {
		if c.Live != 0 || c.Offered != 0 {
			t.Fatalf("cluster %d still had traffic after field-wide depletion: %+v", c.Cluster, c)
		}
	}
}

func TestFieldMetricsEmitted(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{Workers: 2, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricEpochs, "").Value(); got != float64(s.Epochs) {
		t.Fatalf("%s = %v, want %d", MetricEpochs, got, s.Epochs)
	}
	if got := reg.Counter(MetricReplans, "").Value(); got != float64(s.ReplansTotal) {
		t.Fatalf("%s = %v, want %d", MetricReplans, got, s.ReplansTotal)
	}
	if got := reg.Gauge(MetricStranded, "").Value(); got != float64(s.StrandedFinal) {
		t.Fatalf("%s = %v, want %d", MetricStranded, got, s.StrandedFinal)
	}
	deaths := reg.Counter(seriesDeathBattery, "").Value() + reg.Counter(seriesDeathFault, "").Value()
	if deaths != float64(len(s.Deaths)) {
		t.Fatalf("death counters = %v, want %d", deaths, len(s.Deaths))
	}
	// Every shard observed its wall clock every epoch.
	var shardObs uint64
	for ch := 0; ch < 6; ch++ {
		shardObs += reg.Histogram(seriesShardSeconds(ch), "", nil).Count()
	}
	if want := uint64(s.Epochs * len(rt.shards)); shardObs != want {
		t.Fatalf("shard histogram observations = %d, want %d", shardObs, want)
	}
}
