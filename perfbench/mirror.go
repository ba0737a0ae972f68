package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/workload"
)

// mirror drives a field epoch through the lower layers' public calls, so
// the traced run can put a span around each layer. field.Runtime.RunEpoch
// is one call and hides them. The mirror follows internal/field step for
// step: channel shards over a worker pool, a per-cluster plan cache and
// runner scratch, the churn boundary (battery kills, then injected faults,
// then the shadowing shift), and the same seed derivations. Where it
// drifts from the program, the program's own counters, printed beside the
// traced counts, show it.
type mirror struct {
	cfg      field.Config
	tr       *tracer
	obs      obs.Observer
	workers  int
	em       energy.Model
	shards   [][]int // channel shards, ascending channel, ascending cluster
	clusters []*topo.Cluster
	caches   []*routing.PlanCache
	ws       []*routing.Workspace
	scratch  []*cluster.RunnerScratch
	demand   [][]int
	batt     [][]float64 // nil without batteries
	dead     [][]bool

	shadowRev int
	refreshed uint64 // summed radio.MediumStats.Refreshed at the last boundary
}

// Salts and seed mixing of internal/field (field.go, churn.go).
const (
	saltFault  = 0xfa017
	saltVictim = 0x71c71
	saltShadow = 0x5ad00
)

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

func hashUnit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// newMirror builds the deployment inside one topo.build span: the
// geometry, the channel assignment and every cluster.
func newMirror(build func() (*topo.Field, field.Config, error), workers int, tr *tracer, o obs.Observer, trace string) (*mirror, error) {
	sp := tr.begin(trace, "topo.build", 0)
	f, cfg, err := build()
	if err != nil {
		return nil, err
	}
	colors, _ := f.ChannelAssignment(cfg.InterferenceRange)
	n := len(f.Heads)
	m := &mirror{
		cfg: cfg, tr: tr, obs: o, workers: workers,
		clusters: make([]*topo.Cluster, n),
		caches:   make([]*routing.PlanCache, n),
		ws:       make([]*routing.Workspace, n),
		scratch:  make([]*cluster.RunnerScratch, n),
		demand:   make([][]int, n),
		dead:     make([][]bool, n),
	}
	if cfg.BatteryJoules > 0 {
		m.batt = make([][]float64, n)
	}
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg.Topo)
		if err != nil {
			return nil, err
		}
		if c.Sensors() == 0 {
			continue
		}
		m.clusters[k] = c
		m.caches[k] = &routing.PlanCache{}
		m.ws[k] = &routing.Workspace{}
		m.scratch[k] = &cluster.RunnerScratch{}
		m.demand[k] = make([]int, c.Sensors()+1)
		m.dead[k] = make([]bool, c.Sensors()+1)
		if m.batt != nil {
			m.batt[k] = make([]float64, c.Sensors()+1)
			for v := range m.batt[k] {
				m.batt[k][v] = cfg.BatteryJoules
			}
		}
	}
	tr.end(sp)

	byColor := make(map[int][]int)
	for k, c := range m.clusters {
		if c != nil {
			byColor[colors[k]] = append(byColor[colors[k]], k)
		}
	}
	chans := make([]int, 0, len(byColor))
	for ch := range byColor {
		chans = append(chans, ch)
	}
	sort.Ints(chans)
	for _, ch := range chans {
		m.shards = append(m.shards, byColor[ch])
	}
	switch {
	case !cfg.Energy.IsZero():
		m.em = cfg.Energy
	case !cfg.Params.Energy.IsZero():
		m.em = cfg.Params.Energy
	default:
		m.em = energy.DefaultModel()
	}
	return m, nil
}

// epochCounts are one epoch's layer counts.
type epochCounts struct {
	solves, augments, hits, misses int
	oracleTests, slots             int
	linksRefreshed, pairs          int
	replans                        int
	shardSecs                      []float64
}

// add accumulates ec into c, and its shard seconds into shardSecs.
// pairs, a level rather than a flow, accumulates so that dividing by the
// epoch count gives the mean level.
func (c *epochCounts) add(ec *epochCounts, shardSecs []float64) {
	c.solves += ec.solves
	c.augments += ec.augments
	c.hits += ec.hits
	c.misses += ec.misses
	c.oracleTests += ec.oracleTests
	c.slots += ec.slots
	c.linksRefreshed += ec.linksRefreshed
	c.pairs += ec.pairs
	c.replans += ec.replans
	for si, t := range ec.shardSecs {
		shardSecs[si] += t
	}
}

type clusterOut struct {
	summary          *cluster.Summary
	hit              bool
	solves, augments int
	err              error
}

// runEpoch runs epoch e and its churn boundary, with trace as the spans'
// trace id.
func (m *mirror) runEpoch(e int, trace string) (*epochCounts, error) {
	root := m.tr.begin(trace, "field.epoch", 0)
	outs := make([]clusterOut, len(m.clusters))
	ec := &epochCounts{shardSecs: make([]float64, len(m.shards))}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(max(m.workers, 1), len(m.shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range next {
				start := time.Now()
				sp := m.tr.begin(trace, "field.shard", root)
				for _, k := range m.shards[si] {
					m.runCluster(e, k, trace, sp, &outs[k])
				}
				m.tr.end(sp)
				ec.shardSecs[si] = time.Since(start).Seconds()
			}
		}()
	}
	for si := range m.shards {
		next <- si
	}
	close(next)
	wg.Wait()

	sums := make([]*cluster.Summary, len(m.clusters))
	for k, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		if m.clusters[k] == nil {
			continue
		}
		sums[k] = o.summary
		if o.hit {
			ec.hits++
		} else {
			ec.misses++
			ec.solves += o.solves
			ec.augments += o.augments
		}
		ec.oracleTests += o.summary.OracleTests
		ec.slots += int(math.Round((o.summary.MeanAckSlots + o.summary.MeanDataSlots) * float64(o.summary.Cycles)))
	}
	changed := m.churn(e, trace, root, sums)
	for _, ch := range changed {
		if ch {
			ec.replans++
		}
	}
	var refreshed uint64
	for _, c := range m.clusters {
		if c != nil {
			st := c.Med.Stats()
			ec.pairs += st.Pairs
			refreshed += st.Refreshed
		}
	}
	ec.linksRefreshed = int(refreshed - m.refreshed)
	m.refreshed = refreshed
	m.tr.end(root)
	return ec, nil
}

// runCluster plans, partitions and simulates cluster k for epoch e.
func (m *mirror) runCluster(e, k int, trace string, parent int, out *clusterOut) {
	c := m.clusters[k]
	p := m.cfg.Params
	if e > 0 {
		p.Seed = int64(hashMix(uint64(p.Seed), uint64(e), uint64(k)+0x5eed))
	}
	sp := m.tr.begin(trace, "routing.plan", parent)
	demand := m.demand[k]
	clear(demand)
	d := workload.NewCBR(c.Sensors(), p.RateBps, p.DataBytes).PlanningDemand(p.Cycle)
	for v := 1; v <= c.Sensors(); v++ {
		if c.Level[v] > 0 {
			demand[v] = d
		}
	}
	cache := m.caches[k]
	if cache.Lookup(c.ConnectivityRev(), demand, p.Search) != nil {
		out.hit = true
	} else {
		plan, err := routing.BalancedPathsWS(m.ws[k], c.G, topo.Head, demand, p.Search)
		if err != nil {
			m.tr.end(sp)
			out.err = fmt.Errorf("cluster %d epoch %d: routing: %w", k, e, err)
			return
		}
		cache.Store(c.ConnectivityRev(), demand, p.Search, plan)
		out.solves, out.augments = plan.Solves, plan.AugmentingPaths
	}
	m.tr.end(sp)

	sp = m.tr.begin(trace, "sector.partition", parent)
	r, err := cluster.NewRunnerScratch(c, p, cache, m.scratch[k])
	m.tr.end(sp)
	if err != nil {
		out.err = fmt.Errorf("cluster %d epoch %d: %w", k, e, err)
		return
	}
	r.Obs = m.obs
	sp = m.tr.begin(trace, "cluster.simulate", parent)
	out.summary, out.err = r.Run(max(m.cfg.EpochCycles, 1))
	m.tr.end(sp)
}

// churn applies the boundary after epoch e and reports which clusters'
// connectivity changed (they re-plan next epoch).
func (m *mirror) churn(e int, trace string, parent int, sums []*cluster.Summary) []bool {
	changed := make([]bool, len(m.clusters))
	seed := uint64(m.cfg.Churn.Seed)
	if seed == 0 {
		seed = uint64(m.cfg.Params.Seed)
	}
	sp := m.tr.begin(trace, "field.churn", parent)
	if m.batt != nil {
		cycles := float64(max(m.cfg.EpochCycles, 1))
		for k, c := range m.clusters {
			if c == nil || sums[k] == nil {
				continue
			}
			var victims []int
			for v := 1; v <= c.Sensors(); v++ {
				if m.dead[k][v] {
					continue
				}
				pr := sums[k].MeanProfiles[v]
				use := m.em.Energy(energy.Tx, pr.InTx) + m.em.Energy(energy.Rx, pr.InRx) +
					m.em.Energy(energy.Idle, pr.InIdle) + m.em.Energy(energy.Sleep, pr.SleepTime())
				m.batt[k][v] -= use * cycles
				if m.batt[k][v] <= 0 {
					m.batt[k][v] = 0
					victims = append(victims, v)
				}
			}
			if len(victims) > 0 {
				for _, v := range victims {
					m.dead[k][v] = true
				}
				c.MarkFailedBatch(victims)
				changed[k] = true
			}
		}
	}
	if rate := m.cfg.Churn.FaultRate; rate > 0 {
		for k, c := range m.clusters {
			if c == nil || hashUnit(hashMix(seed, uint64(e), uint64(k), saltFault)) >= rate {
				continue
			}
			alive := c.Reachable()
			if len(alive) == 0 {
				continue
			}
			v := alive[int(hashMix(seed, uint64(e), uint64(k), saltVictim)%uint64(len(alive)))]
			m.dead[k][v] = true
			c.MarkFailed(v)
			changed[k] = true
		}
	}
	m.tr.end(sp)

	ch := m.cfg.Churn
	ld, ok := m.cfg.Topo.Prop.(*radio.LogDistance)
	if ch.ShadowSigmaDB <= 0 || ch.ShadowEvery <= 0 || !ok || (e+1)%ch.ShadowEvery != 0 {
		return changed
	}
	sp = m.tr.begin(trace, "radio.refresh", parent)
	m.shadowRev++
	ld.ShadowDB = radio.HashShadow(int64(hashMix(seed, uint64(m.shadowRev), saltShadow)), ch.ShadowSigmaDB)
	for k, c := range m.clusters {
		if c == nil {
			continue
		}
		prev := c.ConnectivityRev()
		c.RefreshConnectivity()
		if c.ConnectivityRev() != prev {
			changed[k] = true
		}
	}
	m.tr.end(sp)
	return changed
}
