// Package field is the multi-cluster field runtime: it promotes the
// whole-deployment simulation from a sequential helper loop into a
// first-class sharded engine. Clusters are grouped into shards by their
// radio channel (the Section V-G coloring): clusters sharing a channel
// serialize inside their shard — the token rotation of the paper — while
// different channels run concurrently on a worker pool bounded by
// exp.Options.Workers. The field advances in lockstep epochs; at every
// epoch boundary a deterministic, seed-derived churn engine injects
// faults (battery depletion through real energy accounting, relay death
// through topo.Cluster.MarkFailed, shadowing shifts through
// radio.Medium.Refresh) and the affected clusters re-plan, so stranded
// sensors drop out while the field keeps delivering for survivors —
// the paper's Fig. 7(c) longitudinal story extended to whole fields.
//
// The runtime is deterministic by construction: an epoch is a closed
// unit. Cluster runtimes are rebuilt at each epoch boundary from
// (seed, epoch, cluster), every random draw is a pure hash of those
// coordinates, and aggregation happens single-threaded in cluster-index
// order after the shard barrier. A run with Workers=1 and Workers=8
// therefore produces byte-identical summaries, and the epoch-boundary
// Snapshot is sufficient state: serializing it, rebuilding the field and
// resuming produces the same final summary as the uninterrupted run.
package field

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Churn configures the epoch-boundary fault engine. The zero value
// injects nothing (batteries still deplete when Config.BatteryJoules is
// set — depletion is accounting, not injection).
type Churn struct {
	// FaultRate is the per-cluster, per-epoch probability that one live
	// sensor dies abruptly at the epoch boundary (hardware failure of a
	// relay, as opposed to the gradual battery depletion the energy
	// accounting produces). The victim is drawn uniformly from the
	// cluster's reachable sensors.
	FaultRate float64
	// ShadowSigmaDB, when positive, shifts the radio environment every
	// ShadowEvery epochs: a new deterministic per-link shadowing table
	// (radio.HashShadow) is installed on the field's propagation model
	// and every cluster's power matrix is refreshed. It requires the
	// topology Config's Prop to be a *radio.LogDistance; with any other
	// model shadow churn is silently inert (two-ray has no shadowing
	// hook).
	ShadowSigmaDB float64
	// ShadowEvery is the period of shadow shifts in epochs; 0 disables
	// them even when ShadowSigmaDB is set.
	ShadowEvery int
	// Seed decorrelates fault draws from the workload/loss randomness;
	// 0 falls back to the cluster Params seed.
	Seed int64
}

// Config describes one field simulation.
type Config struct {
	// Topo carries the per-cluster radio and range parameters; sensor
	// counts come from the field's Voronoi cells, not Topo.Sensors.
	Topo topo.Config
	// Params are the shared cluster runtime parameters. Params.Seed is
	// the base seed every epoch-level seed derives from.
	Params cluster.Params
	// InterferenceRange is the sensor-to-sensor distance below which two
	// clusters are considered adjacent for channel coloring.
	InterferenceRange float64
	// BatteryJoules sizes each sensor's battery. Positive values enable
	// real depletion accounting (sensors die when their battery empties)
	// and the steady-state Lifetime estimate; zero or negative runs on
	// mains (no depletion, no lifetime).
	BatteryJoules float64
	// Energy is the model used for battery depletion and the Lifetime
	// estimate. The zero value falls back to Params.Energy, then to
	// energy.DefaultModel().
	Energy energy.Model
	// EpochCycles is the number of duty cycles each live cluster runs
	// per epoch; 0 means 1.
	EpochCycles int
	// Epochs is how many epochs Run executes; 0 means 1.
	Epochs int
	// Churn is the fault-injection configuration.
	Churn Churn
	// OnEpoch, when non-nil, is invoked once per completed epoch with
	// that epoch's report, after the shard barrier and churn boundary,
	// from the goroutine driving RunEpoch. The report is the same value
	// appended to the Summary; callbacks must not retain it past the
	// call if they mutate it. The hook is observational only — it cannot
	// influence the run, so the determinism contract is unaffected.
	OnEpoch func(*EpochReport)
}

// epochCycles resolves the per-epoch cycle count.
func (c Config) epochCycles() int {
	if c.EpochCycles < 1 {
		return 1
	}
	return c.EpochCycles
}

// epochs resolves the run length.
func (c Config) epochs() int {
	if c.Epochs < 1 {
		return 1
	}
	return c.Epochs
}

// energyModel resolves the depletion/lifetime model.
func (c Config) energyModel() energy.Model {
	if !c.Energy.IsZero() {
		return c.Energy
	}
	if !c.Params.Energy.IsZero() {
		return c.Params.Energy
	}
	return energy.DefaultModel()
}

// churnSeed resolves the fault-draw seed.
func (c Config) churnSeed() int64 {
	if c.Churn.Seed != 0 {
		return c.Churn.Seed
	}
	return c.Params.Seed
}

// Death records one sensor's demise at an epoch boundary.
type Death struct {
	// Epoch is the boundary index (the death happens after epoch Epoch).
	Epoch int `json:"epoch"`
	// Cluster is the field cluster index, Sensor the cluster-local node.
	Cluster int `json:"cluster"`
	Sensor  int `json:"sensor"`
	// Cause is "battery" (depletion) or "fault" (injected churn).
	Cause string `json:"cause"`
}

// ClusterEpoch is one cluster's compact per-epoch row.
type ClusterEpoch struct {
	Cluster int `json:"cluster"`
	Channel int `json:"channel"`
	// Live counts the reachable, powered sensors that took part.
	Live      int           `json:"live"`
	Offered   int           `json:"offered"`
	Delivered int           `json:"delivered"`
	Retries   int           `json:"retries"`
	MeanDuty  time.Duration `json:"mean_duty_ns"`
	Fits      bool          `json:"fits"`
}

// EpochReport summarizes one field epoch plus the churn boundary that
// closed it.
type EpochReport struct {
	Epoch int `json:"epoch"`
	// Clusters holds one row per cluster that ran, ascending by index.
	Clusters []ClusterEpoch `json:"clusters"`
	// TokenCycle and ColoredCycle are the minimum feasible field cycles
	// this epoch under single-token rotation and under the coloring.
	TokenCycle   time.Duration `json:"token_cycle_ns"`
	ColoredCycle time.Duration `json:"colored_cycle_ns"`
	// Deaths lists the sensors that died at this epoch's boundary.
	Deaths []Death `json:"deaths,omitempty"`
	// Stranded counts live sensors without a relaying path after the
	// boundary's re-planning.
	Stranded int `json:"stranded"`
	// Replans counts clusters whose connectivity actually changed at the
	// boundary (deaths, or a shadowing shift that flipped at least one
	// link) and will be re-planned for the next epoch. A shadow shift
	// that leaves a cluster's graph intact does not count — its cached
	// routing plan stays valid.
	Replans int `json:"replans"`
}

// Summary is the serializable whole-run aggregate — the object the
// determinism contract is stated over: identical for identical (field,
// Config) regardless of worker count, byte for byte.
type Summary struct {
	// Clusters counts the field's non-empty clusters; Channels the
	// colors the interference coloring used; Colors each non-empty
	// cluster's channel in head order.
	Clusters int   `json:"clusters"`
	Channels int   `json:"channels"`
	Colors   []int `json:"colors"`
	// Epochs completed and duty cycles per epoch.
	Epochs      int `json:"epochs"`
	EpochCycles int `json:"epoch_cycles"`
	// OfferedTotal/DeliveredTotal/RetriesTotal count data packets and
	// loss-induced re-polls across the whole run.
	OfferedTotal   int `json:"offered_total"`
	DeliveredTotal int `json:"delivered_total"`
	RetriesTotal   int `json:"retries_total"`
	// Deaths in boundary order (battery deaths before injected faults
	// within a boundary, ascending cluster then sensor).
	Deaths []Death `json:"deaths,omitempty"`
	// FirstDeath is the simulated time of the first death, 0 if none.
	FirstDeath time.Duration `json:"first_death_ns"`
	// Lifetime is the steady-state first-sensor-death estimate from the
	// initial epoch's mean profiles at Config.BatteryJoules — the metric
	// the paper's Fig. 7(c) plots. Zero when batteries are disabled.
	Lifetime time.Duration `json:"lifetime_ns"`
	// StrandedFinal counts live sensors with no relaying path at the end.
	StrandedFinal int `json:"stranded_final"`
	// ReplansTotal counts per-cluster re-planning events across the run.
	ReplansTotal int `json:"replans_total"`
	// Reports holds the per-epoch rows in order.
	Reports []EpochReport `json:"reports"`
}

// DeliveredFraction is the run-wide delivery ratio.
func (s *Summary) DeliveredFraction() float64 {
	if s.OfferedTotal == 0 {
		return 1
	}
	return float64(s.DeliveredTotal) / float64(s.OfferedTotal)
}

// MaxColoredCycle returns the largest per-epoch colored cycle — the duty
// the field's worst epoch demanded from its busiest channel.
func (s *Summary) MaxColoredCycle() time.Duration {
	var max time.Duration
	for i := range s.Reports {
		if c := s.Reports[i].ColoredCycle; c > max {
			max = c
		}
	}
	return max
}

// FitsCycle reports whether the field sustained the given cycle length
// under its channel coloring through every epoch.
func (s *Summary) FitsCycle(cycle time.Duration) bool {
	return s.MaxColoredCycle() <= cycle
}

// Epoch is the full in-memory result of one epoch, including the
// per-cluster summaries the compact Summary drops.
type Epoch struct {
	Report EpochReport
	// Summaries[k] is field cluster k's summary, nil for clusters that
	// did not run (empty Voronoi cells).
	Summaries []*cluster.Summary
}

// Runtime is a field simulation in progress. It is not safe for
// concurrent use; the parallelism lives inside RunEpoch.
type Runtime struct {
	f        *topo.Field
	cfg      Config
	em       energy.Model
	colors   []int // per field cluster
	channels int
	shards   [][]int // shard -> ascending cluster indices, ordered by channel

	clusters  []*topo.Cluster // nil for empty clusters
	batteries [][]float64     // remaining joules, [k][v], nil when disabled
	dead      [][]bool        // [k][v]
	epoch     int

	// The shadowing table lives on the propagation model every cluster
	// shares. table is the revision installed there; revs[k] the revision
	// cluster k's materialized links reflect. A whole-field run keeps
	// every cluster at revForEpoch(epoch); shard mode lets them differ and
	// installs each cluster's revision before it runs.
	table int
	revs  []int

	// planCaches[k] memoizes cluster k's routing plan across epoch
	// boundaries, keyed by (connectivity revision, demand fingerprint):
	// quiet epochs reuse the plan instead of re-solving the flow network.
	// Each cache is only touched by the shard worker running cluster k, so
	// no locking is needed; the plan itself is a pure function of the key,
	// so hits cannot perturb the determinism contract.
	planCaches []*routing.PlanCache
	// runnerScratch[k] is cluster k's reusable runner-build state
	// (oracle, routing workspace, polling buffers), created on first use;
	// outs[k] is cluster k's epoch product and boundary scratch. Only the
	// worker running cluster k touches its slots, so the fan-out needs no
	// locking — same discipline as planCaches.
	runnerScratch []*cluster.RunnerScratch
	outs          []clusterOut

	// Scratch for the single-threaded phases (after RunEpoch's barrier,
	// in the shard path, in merges and state applies), reused across
	// epochs so a steady-state epoch allocates nothing proportional to
	// the cluster count.
	scratchVictims    []int
	scratchReach      []int
	scratchDuties     []time.Duration
	scratchDutyColors []int
	scratchResults    []*ClusterResult
	scratchByK        []*ClusterResult
	scratchSorted     []int
	// scratchBatt is one cluster's battery copy: the pre-boundary levels
	// a shard result's delta is diffed against, or the levels a merged
	// delta decodes to.
	scratchBatt []float64

	// lastRadioRefreshed remembers the field-wide cumulative refreshed-
	// links counter at the previous emit, so the radio_refresh_links_total
	// counter advances by per-epoch deltas.
	lastRadioRefreshed uint64

	// Shard mode (see shard.go): per-cluster epoch bookkeeping for a
	// worker process that owns a subset of the field's clusters. nil until
	// the first RunShardEpoch/AdoptCluster call; once armed, the whole-
	// field RunEpoch path is rejected — the two drive the same cluster
	// state under incompatible invariants.
	shardEpochs  []int            // per cluster: completed epochs
	shardResults []*ClusterResult // per cluster: last result, for idempotent re-query

	sum Summary
}

// PlanCache returns cluster k's routing plan cache (nil for empty
// clusters) — its Hits/Misses counters are the cache's ground truth and
// what the tests assert on.
func (rt *Runtime) PlanCache(k int) *routing.PlanCache { return rt.planCaches[k] }

// New builds a runtime over the field. The field's clusters are
// materialized once; churn mutates them in place across epochs.
func New(f *topo.Field, cfg Config) (*Runtime, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.InterferenceRange <= 0 {
		return nil, fmt.Errorf("field: non-positive interference range %g", cfg.InterferenceRange)
	}
	colors, channels := f.ChannelAssignment(cfg.InterferenceRange)
	rt := &Runtime{
		f:        f,
		cfg:      cfg,
		em:       cfg.energyModel(),
		colors:   colors,
		channels: channels,
	}
	rt.clusters = make([]*topo.Cluster, len(f.Heads))
	rt.dead = make([][]bool, len(f.Heads))
	rt.revs = make([]int, len(f.Heads))
	rt.planCaches = make([]*routing.PlanCache, len(f.Heads))
	rt.runnerScratch = make([]*cluster.RunnerScratch, len(f.Heads))
	rt.outs = make([]clusterOut, len(f.Heads))
	if cfg.BatteryJoules > 0 {
		rt.batteries = make([][]float64, len(f.Heads))
	}
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg.Topo)
		if err != nil {
			return nil, err
		}
		n := c.Sensors()
		if n == 0 {
			continue
		}
		rt.clusters[k] = c
		rt.dead[k] = make([]bool, n+1)
		rt.planCaches[k] = &routing.PlanCache{}
		if rt.batteries != nil {
			rt.batteries[k] = make([]float64, n+1)
			for v := 1; v <= n; v++ {
				rt.batteries[k][v] = cfg.BatteryJoules
			}
		}
		rt.sum.Clusters++
		rt.sum.Colors = append(rt.sum.Colors, colors[k])
	}
	rt.sum.Channels = channels
	rt.sum.EpochCycles = cfg.epochCycles()
	rt.buildShards()
	return rt, nil
}

// buildShards groups the non-empty clusters by channel color: one shard
// per color in ascending color order, ascending cluster index within.
func (rt *Runtime) buildShards() {
	byColor := make(map[int][]int)
	for k, c := range rt.clusters {
		if c == nil {
			continue
		}
		byColor[rt.colors[k]] = append(byColor[rt.colors[k]], k)
	}
	channels := make([]int, 0, len(byColor))
	for ch := range byColor {
		channels = append(channels, ch)
	}
	sort.Ints(channels)
	rt.shards = rt.shards[:0]
	for _, ch := range channels {
		rt.shards = append(rt.shards, byColor[ch])
	}
}

// Epoch returns the index of the next epoch to run (equivalently, the
// number of completed epochs).
func (rt *Runtime) Epoch() int { return rt.epoch }

// Summary returns the aggregate accumulated so far. The pointer stays
// valid (and keeps updating) across epochs.
func (rt *Runtime) Summary() *Summary { return &rt.sum }

// Channels returns the number of radio channels the coloring used.
func (rt *Runtime) Channels() int { return rt.channels }

// epochSeed derives cluster k's runtime seed for an epoch. Epoch 0 uses
// the base seed unmixed so a one-epoch run reproduces the legacy
// sequential helper exactly; later epochs decorrelate per (epoch, k).
func (rt *Runtime) epochSeed(epoch, k int) int64 {
	if epoch == 0 {
		return rt.cfg.Params.Seed
	}
	return int64(hashMix(uint64(rt.cfg.Params.Seed), uint64(epoch), uint64(k)+0x5eed))
}

// clusterOut is one cluster's epoch product: the ClusterResult the fold
// consumes, plus what stays in-process (the full summary and the
// planner's work) and the cluster's own boundary scratch.
type clusterOut struct {
	res     ClusterResult
	summary *cluster.Summary
	// cacheHit records whether the routing plan came from the plan cache;
	// on a miss, planSolves/planAugments carry the fresh plan's solver
	// stats for the routing_* counters.
	cacheHit     bool
	planSolves   int
	planAugments int
	err          error
	// victims and reach belong to this cluster alone, so the boundary can
	// run inside the parallel fan-out.
	victims, reach []int
}

// stepCluster is one cluster's epoch: it runs cluster k's duty cycles,
// then the part of the boundary that touches only cluster k — battery
// kills from the epoch's energy draw, then the injected-fault draw — and
// fills out.res with the report row, the deaths, the epoch-0 lifetime
// estimate and whether a death changed the cluster. The shadow shift and
// the stranded count follow in settle. Everything here is a pure
// function of (config, cluster state, epoch, k) plus the plan cache and
// touches only cluster k's state and slots, so RunEpoch's fan-out runs it
// concurrently across clusters; RunShardEpoch runs it one cluster at a
// time.
func (rt *Runtime) stepCluster(o exp.Options, epoch, k int, out *clusterOut) {
	out.summary, out.err = nil, nil
	c := rt.clusters[k]
	cycles := rt.cfg.epochCycles()
	// Dark clusters (no live reachable sensor) still run: the head
	// keeps broadcasting its wake/sleep cycle whether or not anyone
	// answers.
	live := c.ReachableCount()
	pk := rt.cfg.Params
	pk.Seed = rt.epochSeed(epoch, k)
	pc := rt.planCaches[k]
	misses0 := pc.Misses
	scr := rt.runnerScratch[k]
	if scr == nil {
		scr = &cluster.RunnerScratch{}
		rt.runnerScratch[k] = scr
	}
	r, err := cluster.NewRunnerScratch(c, pk, pc, scr)
	if err != nil {
		out.err = fmt.Errorf("field: cluster %d epoch %d: %w", k, epoch, err)
		return
	}
	out.cacheHit = pc.Misses == misses0
	out.planSolves, out.planAugments = r.Plan.Solves, r.Plan.AugmentingPaths
	r.Obs = o.Obs
	unreachable := len(r.Unreachable)
	s, err := r.Run(cycles)
	if err != nil {
		out.err = fmt.Errorf("field: cluster %d epoch %d: %w", k, epoch, err)
		return
	}
	out.summary = s
	res := &out.res
	*res = ClusterResult{
		Epoch: epoch,
		Row: ClusterEpoch{
			Cluster:   k,
			Channel:   rt.colors[k],
			Live:      live,
			Offered:   s.Offered,
			Delivered: s.Delivered,
			Retries:   s.Retries,
			MeanDuty:  s.MeanDuty,
			Fits:      s.AllFit,
		},
	}
	// The Fig. 7(c) steady-state lifetime estimate comes from the first
	// epoch, before churn reshapes the load, over clusters with at least
	// one live sensor.
	if epoch == 0 && rt.cfg.BatteryJoules > 0 && unreachable < c.Sensors() {
		res.Lifetime = s.Lifetime(rt.em, rt.cfg.BatteryJoules)
		res.HasLifetime = true
	}
	if rt.batteries != nil && rt.drainCluster(epoch, k, s, out) {
		res.Changed = true
	}
	if rt.cfg.Churn.FaultRate > 0 && rt.faultCluster(epoch, k, out) {
		res.Changed = true
	}
}

// settle closes cluster k's boundary once no cluster of this process is
// still running the epoch: the shadowing shift, when due, brings the
// cluster's links to the next revision (a cluster counts as changed only
// if a link actually flipped — quiet clusters keep their plan-cache
// hits), and its stranded sensors are counted.
func (rt *Runtime) settle(epoch, k int, res *ClusterResult) {
	if rt.shadowDue(epoch) && rt.refreshCluster(k, rt.revForEpoch(epoch+1)) {
		res.Changed = true
	}
	res.Stranded = rt.strandedIn(k)
}

// RunEpoch advances the field one epoch: every live cluster runs
// Config.EpochCycles duty cycles and its share of the churn boundary
// (sharded by channel, workers bounded by o); after the barrier the
// shadow shift and stranded counts settle each cluster in index order
// and the results fold into the report. The returned Epoch carries the
// full per-cluster summaries; the compact row is also appended to the
// runtime's Summary. An error leaves the runtime partway through the
// boundary: resume from the last Snapshot.
func (rt *Runtime) RunEpoch(o exp.Options) (*Epoch, error) {
	if rt.shardEpochs != nil {
		return nil, fmt.Errorf("field: RunEpoch on a shard-mode runtime")
	}
	epoch := rt.epoch
	outs := rt.outs

	// Shard fan-out: same-channel clusters serialize (token rotation),
	// different channels run concurrently. Per-cluster outputs land in
	// index-addressed slots, so worker scheduling cannot reorder them.
	workers := o.WorkerCount()
	if workers > len(rt.shards) {
		workers = len(rt.shards)
	}
	runShard := func(si int) {
		start := time.Now()
		for _, k := range rt.shards[si] {
			rt.stepCluster(o, epoch, k, &outs[k])
		}
		if o.Obs != nil {
			o.Obs.Observe(seriesShardSeconds(rt.shardChannel(si)), time.Since(start).Seconds())
		}
	}
	if workers <= 1 {
		for si := range rt.shards {
			runShard(si)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range next {
					runShard(si)
				}
			}()
		}
		for si := range rt.shards {
			next <- si
		}
		close(next)
		wg.Wait()
	}

	// Barrier passed: everything below is single-threaded, in cluster
	// index order. The shadow shift must wait for it — far pairs read
	// the shared propagation model, so no running cluster may see the
	// next revision's table.
	ep := &Epoch{Summaries: make([]*cluster.Summary, len(rt.clusters))}
	results := rt.scratchResults[:0]
	var ps plannerStats
	for k, c := range rt.clusters {
		if c == nil {
			continue
		}
		out := &outs[k]
		if out.err != nil {
			return nil, out.err
		}
		rt.settle(epoch, k, &out.res)
		ep.Summaries[k] = out.summary
		results = append(results, &out.res)
		if out.cacheHit {
			ps.cacheHits++
		} else {
			ps.cacheMisses++
			ps.solves += out.planSolves
			ps.augments += out.planAugments
		}
	}
	rt.scratchResults = results
	rep, err := rt.fold(results, o.Obs, ps)
	if err != nil {
		return nil, err
	}
	ep.Report = *rep
	return ep, nil
}

// fold closes an epoch from its per-cluster results, ascending by
// cluster — the one aggregation RunEpoch and MergeEpoch share. It builds
// the report (rows, token and colored cycles, deaths in the canonical
// battery-then-fault phase order, stranded, replans), advances the epoch
// and the Summary (totals, epoch-0 lifetime, deaths, first death,
// reports), then publishes to ob (when non-nil) and Config.OnEpoch.
func (rt *Runtime) fold(results []*ClusterResult, ob obs.Observer, ps plannerStats) (*EpochReport, error) {
	epoch := rt.epoch
	rep := EpochReport{Epoch: epoch}
	duties := rt.scratchDuties[:0]
	dutyColors := rt.scratchDutyColors[:0]
	var lifetime time.Duration
	for _, r := range results {
		rep.Clusters = append(rep.Clusters, r.Row)
		duties = append(duties, r.Row.MeanDuty)
		dutyColors = append(dutyColors, r.Row.Channel)
		rep.Stranded += r.Stranded
		if r.Changed {
			rep.Replans++
		}
		if r.HasLifetime && (lifetime == 0 || r.Lifetime < lifetime) {
			lifetime = r.Lifetime
		}
	}
	rt.scratchDuties, rt.scratchDutyColors = duties, dutyColors
	rep.TokenCycle = cluster.TokenRotationCycle(duties)
	colored, err := cluster.ColoredCycle(duties, dutyColors)
	if err != nil {
		return nil, err
	}
	rep.ColoredCycle = colored
	for _, cause := range [...]string{"battery", "fault"} {
		for _, r := range results {
			for _, d := range r.Deaths {
				if d.Cause == cause {
					rep.Deaths = append(rep.Deaths, d)
				}
			}
		}
	}

	for _, r := range results {
		rt.sum.OfferedTotal += r.Row.Offered
		rt.sum.DeliveredTotal += r.Row.Delivered
		rt.sum.RetriesTotal += r.Row.Retries
	}
	if epoch == 0 && rt.cfg.BatteryJoules > 0 {
		rt.sum.Lifetime = lifetime
	}
	rt.epoch++
	rt.sum.Epochs = rt.epoch
	rt.sum.Deaths = append(rt.sum.Deaths, rep.Deaths...)
	rt.sum.StrandedFinal = rep.Stranded
	rt.sum.ReplansTotal += rep.Replans
	if rt.sum.FirstDeath == 0 && len(rep.Deaths) > 0 {
		rt.sum.FirstDeath = time.Duration(rt.epoch*rt.cfg.epochCycles()) * rt.cfg.Params.Cycle
	}
	rt.sum.Reports = append(rt.sum.Reports, rep)
	if ob != nil {
		rt.emit(&rep, ps, ob)
	}
	if rt.cfg.OnEpoch != nil {
		rt.cfg.OnEpoch(&rep)
	}
	return &rep, nil
}

// Run executes epochs until Config.Epochs is reached, checking the
// Options context between epochs (the issue-level cancellation contract:
// a canceled context stops the field at the next boundary and returns
// the context's error). Resumed runtimes continue from their snapshot
// epoch. The returned Summary is owned by the runtime.
func (rt *Runtime) Run(o exp.Options) (*Summary, error) {
	ctx := o.Context()
	for rt.epoch < rt.cfg.epochs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := rt.RunEpoch(o); err != nil {
			return nil, err
		}
	}
	return &rt.sum, nil
}

// hashMix folds the parts into one splitmix64-style hash. Pure function
// of its arguments — the determinism contract rests on every random draw
// flowing through here with (seed, epoch, cluster, salt) coordinates.
func hashMix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// hashUnit maps a hash to [0, 1).
func hashUnit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
